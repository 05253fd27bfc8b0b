package testbed

import (
	"runtime"
	"testing"
	"time"
)

// voipCellAllocBudget bounds the heap allocations of one paper VoIP/UMTS
// cell — 120 s, 12,000 packets out and 12,000 echoes back — build,
// dial-up, flow, decode and teardown included. The steady-state data
// path allocates nothing per packet (recycled packets and payloads,
// closure-free core transit, presized ITG logs), so what remains is
// per-run set-up; a per-packet allocation anywhere on the path adds at
// least 12,000 and breaks the budget.
const voipCellAllocBudget = 5000

func TestVoIPCellAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	run := func() {
		t.Helper()
		res, err := runPaper(1, PathUMTS, WorkloadVoIP, 120*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if res.Decoded.Received == 0 {
			t.Fatal("the cell carried no traffic")
		}
	}
	// The first run also fills the packet pool and one-time tables.
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("VoIP cell: %d allocations, %.2f MB allocated", allocs, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	if allocs > voipCellAllocBudget {
		t.Fatalf("VoIP cell made %d heap allocations, budget %d", allocs, voipCellAllocBudget)
	}
}
