package exper

import (
	"reflect"
	"testing"
)

// TestGeneratorsDeterministicAcrossWorkers: a generator's table must be
// identical however many workers shard its sweep — the parallel layer may
// change only the wall clock, never a cell. Fig. 1 exercises the sharded
// figure sweep; Fig3 additionally runs the parallel Optimize2 searches.
func TestGeneratorsDeterministicAcrossWorkers(t *testing.T) {
	fid := Quick()
	fid.GridN = 1 << 10

	fid.Workers = 1
	fig1Base, err := Fig12(LowDelay, true, fid)
	if err != nil {
		t.Fatal(err)
	}
	fig3Base, err := Fig3(fid)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 4} {
		fid.Workers = workers
		fig1, err := Fig12(LowDelay, true, fid)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fig1, fig1Base) {
			t.Fatalf("Fig. 1 diverged at Workers=%d:\n got %v\nwant %v", workers, fig1.Rows, fig1Base.Rows)
		}
		fig3, err := Fig3(fid)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fig3, fig3Base) {
			t.Fatalf("Fig3 diverged at Workers=%d", workers)
		}
	}
}
