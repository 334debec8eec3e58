package core

import (
	"testing"

	"oopp/internal/pagedev"
)

// TestJacobiOwnerSyncSelectsTheReferenceSchedule pins what tells the two
// owner-computes schedules apart on the wire: JacobiOwnerSync's plane
// calls carry SyncHalo, JacobiOwner's do not. The results are bitwise
// equal by design (overlap_test.go), so only the arguments can show that
// the sync entry point does not run the overlapped schedule.
func TestJacobiOwnerSyncSelectsTheReferenceSchedule(t *testing.T) {
	cl := storageCluster(t, 2)
	pm, err := NewStripedMap(2, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	storage, err := CreateBlockStorage(bgCtx, cl.Client(), []int{0, 1}, "jo", 2*pm.PagesPerDevice(), 2, 4, 4, pagedev.DiskPrivate)
	if err != nil {
		t.Fatal(err)
	}
	defer storage.Close(bgCtx)
	arr, err := NewArray(bgCtx, storage, pm, 4, 4, 4, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, syncHalo := range []bool{false, true} {
		s, err := planSweep(bgCtx, arr, syncHalo)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 2; q++ {
			args := s.args(q, 0, s.ppd)
			if args.SyncHalo != syncHalo {
				t.Errorf("plane %d of a syncHalo=%v sweep carries SyncHalo=%v", q, syncHalo, args.SyncHalo)
			}
			if (args.Lo != nil) != (q > 0) || (args.Hi != nil) != (q < 1) {
				t.Errorf("plane %d: halo neighbours lo=%v hi=%v", q, args.Lo != nil, args.Hi != nil)
			}
		}
	}
}
