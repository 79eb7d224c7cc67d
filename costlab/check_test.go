package main

import "testing"

func TestStaleReads(t *testing.T) {
	w := func(start, end int64, ver uint32) event { return event{start, end, ver, true} }
	r := func(start, end int64, ver uint32) event { return event{start, end, ver, false} }
	prior := lastWrite{end: 5, ver: 7, valid: true}
	for _, tc := range []struct {
		name          string
		evs           []event
		prior         lastWrite
		judged, stale int
		next          uint32
	}{
		{"fresh read after a completed write", []event{w(10, 20, 1), r(30, 40, 1)}, lastWrite{}, 1, 0, 1},
		{"stale read after a completed write", []event{w(10, 20, 2), r(30, 40, 1)}, lastWrite{}, 1, 1, 2},
		{"preloaded value after a completed write", []event{w(10, 20, 1), r(30, 40, 0)}, lastWrite{}, 1, 1, 1},
		{"read overlapping a write is not judged", []event{w(10, 20, 1), w(35, 45, 2), r(30, 40, 1)}, lastWrite{}, 0, 0, 2},
		{"read after overlapping writes is not judged", []event{w(10, 20, 1), w(15, 25, 2), r(30, 40, 1)}, lastWrite{}, 0, 0, 2},
		{"read with no write before it is not judged", []event{r(1, 2, 0), w(10, 20, 1)}, lastWrite{}, 0, 0, 1},
		{"write from an earlier window, fresh", []event{r(10, 20, 7)}, prior, 1, 0, 7},
		{"write from an earlier window, stale", []event{r(10, 20, 6)}, prior, 1, 1, 7},
		{"overlapped earlier write is not judged", []event{r(10, 20, 6)}, lastWrite{end: 5, ver: 7, valid: true, overlapped: true}, 0, 0, 7},
		{"later write supersedes the earlier window", []event{w(10, 20, 8), r(30, 40, 7)}, prior, 1, 1, 8},
	} {
		judged, stale, next := staleReads(tc.evs, tc.prior)
		if judged != tc.judged || stale != tc.stale || next.ver != tc.next {
			t.Errorf("%s: judged %d stale %d next %d, want %d %d %d", tc.name, judged, stale, next.ver, tc.judged, tc.stale, tc.next)
		}
	}
}
