// Package cost implements the paper's cost model (§6: 4 KB blocks, 10 ms
// seek, 2 ms/block read, 4 ms/block write, 0.2 ms/block CPU, 6 MB per
// operator) and a textbook cardinality estimator over catalog statistics.
//
// All costs are estimated wall-clock seconds, matching the units the paper
// reports in Figures 6, 8 and 9.
package cost

import "math"

// Cost is an estimated execution cost in seconds.
type Cost = float64

// Eq reports whether two costs agree within Tolerance. Incremental cost
// propagation, what-ifs and from-scratch recosting accumulate
// float64 rounding in different orders; invariant checks comparing them
// must use this instead of ==.
func Eq(a, b Cost) bool {
	d := a - b
	return d <= Tolerance && d >= -Tolerance
}

// Tolerance is the cost-comparison slack used by Eq: far below any real
// plan-cost difference, far above the rounding noise of reordered float64
// summation.
const Tolerance = 1e-6

// Leq reports whether a is at most b within Tolerance — the comparison for
// dominance invariants ("a heuristic's plan never beats / never exceeds
// X") that must not trip on reordered-summation rounding.
func Leq(a, b Cost) bool { return a-b <= Tolerance }

// Tier identifies which storage tier a cached result lives in. The paper's
// cost model has a single block-read constant; a tiered result cache needs
// one per tier so the optimizer prices a warm (disk-backed) hit honestly
// against recomputation instead of pretending it reads at RAM speed.
type Tier uint8

const (
	// TierRAM is the primary tier: spooled tables in the main buffer pool.
	TierRAM Tier = iota
	// TierWarm is the disk-backed tier cache entries are demoted to.
	TierWarm
)

// String names the tier for plan profiles and metrics labels.
func (t Tier) String() string {
	if t == TierWarm {
		return "warm"
	}
	return "ram"
}

// Model holds the cost-model constants. The zero value is unusable; use
// DefaultModel and adjust fields as needed (e.g. MemoryBytes for the §6.4
// memory-sensitivity experiment).
type Model struct {
	BlockSize   int64   // bytes per block
	SeekS       float64 // seconds per seek
	ReadS       float64 // seconds per block read
	WriteS      float64 // seconds per block write
	WarmReadS   float64 // seconds per block read from the warm (disk) tier
	CPUS        float64 // seconds of CPU per block processed
	CPUTupleS   float64 // seconds of CPU per tuple operation (comparison/probe)
	MemoryBytes int64   // memory available to each operator
}

// DefaultModel returns the constants used throughout the paper's §6, plus a
// per-tuple CPU charge that gives nested-loops joins their quadratic
// compare cost (without it an in-memory NL join would be nearly free and no
// intermediate result would ever be worth sharing).
func DefaultModel() Model {
	return Model{
		BlockSize:   4096,
		SeekS:       0.010,
		ReadS:       0.002,
		WriteS:      0.004,
		WarmReadS:   0.008,
		CPUS:        0.0002,
		CPUTupleS:   2e-8,
		MemoryBytes: 6 << 20,
	}
}

// MemBlocks is the number of buffer blocks available to one operator.
func (m Model) MemBlocks() float64 {
	b := float64(m.MemoryBytes) / float64(m.BlockSize)
	if b < 3 {
		b = 3
	}
	return b
}

// Blocks converts a (rows, width) estimate to blocks, at least 1 for any
// non-empty relation.
func (m Model) Blocks(rows float64, width int) float64 {
	if rows <= 0 {
		return 0
	}
	b := rows * float64(width) / float64(m.BlockSize)
	if b < 1 {
		b = 1
	}
	return b
}

// ScanCost is the cost of sequentially reading blocks from disk, including
// per-block CPU.
func (m Model) ScanCost(blocks float64) Cost {
	if blocks <= 0 {
		return 0
	}
	return m.SeekS + blocks*(m.ReadS+m.CPUS)
}

// TierScanCost is ScanCost charged at the given tier's per-block read
// constant: reading a RAM-resident cache table pays ReadS per block,
// reading a warm (disk-backed) one pays WarmReadS. A zero WarmReadS falls
// back to ReadS so models built before tiering keep their old behavior.
func (m Model) TierScanCost(t Tier, blocks float64) Cost {
	if blocks <= 0 {
		return 0
	}
	if t == TierWarm {
		r := m.WarmReadS
		if r <= 0 {
			r = m.ReadS
		}
		return m.SeekS + blocks*(r+m.CPUS)
	}
	return m.ScanCost(blocks)
}

// BindingReadbackCost prices serving a set of cached Invoke-body bindings
// by table scan: one tier-priced scan per binding (each binding lives in
// its own spooled table, so each read pays its own seek), every scan
// clamped to at least one block. It is the OpCost side of a partial hit's
// price — cached-fraction read-back — with the residual fraction carried
// by the Invoke body's child weight (ResidualInvokeWeight), so together
// the two make all four algorithms choose partial hits natively through
// the ordinary weighted-child cost recurrence.
func (m Model) BindingReadbackCost(tiers []Tier, blocks []float64) Cost {
	var c Cost
	for i, t := range tiers {
		b := blocks[i]
		if b < 1 {
			b = 1
		}
		c += m.TierScanCost(t, b)
	}
	return c
}

// ResidualInvokeWeight scales an Invoke's invocation-count estimate to the
// fraction of this batch's bindings that missed the binding cache: with
// residual of total bindings uncached, the body child of an InvokePartial
// is weighted at times×residual/total. A zero total (no bindings supplied)
// keeps the full estimate.
func ResidualInvokeWeight(times float64, residual, total int) float64 {
	if total <= 0 {
		return times
	}
	w := times * float64(residual) / float64(total)
	if w < 0 {
		return 0
	}
	return w
}

// WriteCost is the cost of sequentially writing blocks to disk. This is the
// paper's materialization cost matcost: "the cost of writing out the result
// sequentially".
func (m Model) WriteCost(blocks float64) Cost {
	if blocks <= 0 {
		return 0
	}
	return m.SeekS + blocks*m.WriteS
}

// CPUCost is the CPU cost of processing blocks in a pipelined operator.
func (m Model) CPUCost(blocks float64) Cost {
	if blocks < 0 {
		return 0
	}
	return blocks * m.CPUS
}

// SortCost is the cost of sorting a relation of the given size. In-memory
// sorts are charged CPU only (inputs are pipelined); larger inputs pay
// external merge-sort I/O: one run-formation pass plus merge passes, each
// reading and writing every block. CPU includes n·log n tuple comparisons.
func (m Model) SortCost(blocks, rows float64) Cost {
	if blocks <= 0 {
		return 0
	}
	mem := m.MemBlocks()
	cpu := blocks*m.CPUS*math.Max(1, math.Log2(math.Max(blocks, 2))) +
		rows*math.Log2(math.Max(rows, 2))*m.CPUTupleS
	if blocks <= mem {
		return cpu
	}
	runs := math.Ceil(blocks / mem)
	passes := 1 + math.Ceil(math.Log(runs)/math.Log(math.Max(mem-1, 2)))
	return passes*blocks*(m.ReadS+m.WriteS) + 2*passes*m.SeekS + cpu
}

// MergeJoinCost is the cost of merging two sorted, pipelined inputs:
// linear block CPU plus one tuple operation per input and output row.
func (m Model) MergeJoinCost(lBlocks, rBlocks, outBlocks, lRows, rRows, outRows float64) Cost {
	return (lBlocks+rBlocks+outBlocks)*m.CPUS + (lRows+rRows+outRows)*m.CPUTupleS
}

// BlockNLJoinCost is the cost of a block nested-loops join with pipelined
// outer. If the inner fits in memory it is read once (by the child, already
// costed) and only CPU is charged here; otherwise the inner is spooled to a
// temporary file once and re-scanned for every memory-full of outer blocks
// beyond the first.
func (m Model) BlockNLJoinCost(outerBlocks, innerBlocks, outBlocks, outerRows, innerRows float64) Cost {
	mem := m.MemBlocks()
	cpu := (outerBlocks+innerBlocks+outBlocks)*m.CPUS + outerRows*innerRows*m.CPUTupleS
	if innerBlocks <= mem-2 {
		return cpu
	}
	chunks := math.Ceil(outerBlocks / math.Max(mem-2, 1))
	rescans := chunks - 1
	if rescans <= 0 {
		return cpu
	}
	spool := m.SeekS + innerBlocks*m.WriteS
	return cpu + spool + rescans*(m.SeekS+innerBlocks*m.ReadS)
}

// IndexProbeCost is the per-use cost of an index nested-loops join: for each
// outer row, probe the inner index and fetch the matching blocks. The index
// interior is assumed cached after the first probe; each probe pays one leaf
// read plus the matching data blocks (1 when clustered and few matches).
func (m Model) IndexProbeCost(outerRows, matchRowsPerProbe float64, innerWidth int, clustered bool) Cost {
	if outerRows <= 0 {
		return 0
	}
	matchBlocks := 1.0
	if clustered {
		matchBlocks = math.Max(1, matchRowsPerProbe*float64(innerWidth)/float64(m.BlockSize))
	} else {
		// Unclustered: up to one block per matching row, capped by table
		// locality assumption of 1 block minimum.
		matchBlocks = math.Max(1, matchRowsPerProbe)
	}
	perProbe := m.ReadS + matchBlocks*m.ReadS + m.CPUS
	return outerRows * perProbe
}

// IndexBuildCost is the cost of building a temporary index on a materialized
// result: sort the keys and write the index blocks.
func (m Model) IndexBuildCost(rows float64, keyWidth int) Cost {
	blocks := m.Blocks(rows, keyWidth+8)
	return m.SortCost(blocks, rows) + m.WriteCost(blocks)
}

// AggregateCost is the CPU cost of sort-based aggregation over a sorted,
// pipelined input.
func (m Model) AggregateCost(inBlocks, outBlocks float64) Cost {
	return (inBlocks + outBlocks) * m.CPUS
}
