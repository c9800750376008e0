package mqo

import (
	"context"
	"testing"

	"mqo/internal/ssb"
)

// TestDroppedTablesFreeTheirPages runs the SSB flights cold, pass after pass,
// on one database whose pool is smaller than the fact table: every pass
// materializes shared joins into temp tables, and its run drops them. A
// dropped table's pages go back to the pager for the next pass to reuse, so
// after the first pass the pager holds as many pages as it ever will.
func TestDroppedTablesFreeTheirPages(t *testing.T) {
	const sf, passes = 0.001, 50
	db := NewDB(64)
	if err := ssb.LoadDB(db, sf, 11); err != nil {
		t.Fatal(err)
	}
	opt, err := Open(ssb.Catalog(sf), WithDB(db))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	materialized, after1 := 0, 0
	for pass := 1; pass <= passes; pass++ {
		for f := 1; f <= ssb.NumFlights; f++ {
			res, err := opt.Run(ctx, Batch{SQL: ssb.FlightSQL(f), Algorithm: Greedy})
			if err != nil {
				t.Fatal(err)
			}
			materialized += len(res.Materialized)
		}
		if pages := db.Pool.NumPages(); pass == 1 {
			after1 = pages
		} else if pages != after1 {
			t.Fatalf("after pass %d the pager holds %d pages, %d after pass 1", pass, pages, after1)
		}
	}
	if materialized == 0 {
		t.Fatal("no pass materialized a table: nothing was dropped")
	}
}
