package dag

import (
	"sync"
	"testing"
)

// TestFinalizedDAGIsReadOnly: after Finalize every forwarded group points
// straight at its representative, so Find — from any group, the ones
// unification retired included — writes nothing, and concurrent readers of
// the finalized DAG do not race (run under -race).
func TestFinalizedDAGIsReadOnly(t *testing.T) {
	for _, b := range identityBatches(t) {
		d := b.build(t)
		for _, g := range d.Groups {
			if g.forward != nil && g.forward.forward != nil {
				t.Errorf("%s: group %d forwards to %d, itself forwarded", b.name, g.ID, g.forward.ID)
			}
		}
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, g := range d.Groups {
					g.Find()
				}
				for _, q := range d.QueryRoots {
					q.Find()
				}
				CanonicalFingerprints(d)
			}()
		}
		wg.Wait()
	}
}
