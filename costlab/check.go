package main

import (
	"sort"
)

// event is one operation on one key in a client-observed history.
type event struct {
	start, end int64
	ver        uint32 // write: version installed; read: version returned
	write      bool
}

// lastWrite is a key's latest write from earlier windows, carried into
// the next window's check. No operation spans windows, so it cannot
// overlap anything after it.
type lastWrite struct {
	end        int64
	ver        uint32
	overlapped bool // it overlapped another write to the key
	valid      bool
}

// staleReads counts the stale reads in one key's history, given the
// key's latest earlier write. A read is stale when a write completed
// before the read began, no other write overlaps that write or the read,
// and the read returned a different version — an older one, since
// nothing newer exists. Reads with no completed write before them, or
// with an overlapping write, are not judged. It returns how many reads
// were judged and how many were stale, and the key's latest write.
func staleReads(evs []event, prior lastWrite) (judged, stale int, next lastWrite) {
	var ws []event
	for _, e := range evs {
		if e.write {
			ws = append(ws, e)
		}
	}
	// Writes by start time, with the running maximum end, decide
	// overlaps; writes by end time find the last completed one.
	sort.Slice(ws, func(i, j int) bool { return ws[i].start < ws[j].start })
	maxEnd := make([]int64, len(ws))
	overlapped := make([]bool, len(ws))
	for i, w := range ws {
		maxEnd[i] = w.end
		if i > 0 {
			if maxEnd[i-1] >= w.start {
				overlapped[i] = true
			}
			maxEnd[i] = max(maxEnd[i], maxEnd[i-1])
		}
		if i+1 < len(ws) && w.end >= ws[i+1].start {
			overlapped[i] = true
		}
	}
	byEnd := make([]int, len(ws))
	for i := range byEnd {
		byEnd[i] = i
	}
	sort.Slice(byEnd, func(a, b int) bool { return ws[byEnd[a]].end < ws[byEnd[b]].end })
	completed := func(k int) lastWrite {
		if k == 0 {
			return prior
		}
		w := byEnd[k-1]
		return lastWrite{end: ws[w].end, ver: ws[w].ver, overlapped: overlapped[w], valid: true}
	}

	for _, r := range evs {
		if r.write {
			continue
		}
		// The last write that completed before the read began.
		last := completed(sort.Search(len(byEnd), func(i int) bool { return ws[byEnd[i]].end >= r.start }))
		if !last.valid || last.overlapped {
			continue
		}
		// Any write that started by the read's end and ended after its
		// start overlaps the read.
		n := sort.Search(len(ws), func(i int) bool { return ws[i].start > r.end })
		if n > 0 && maxEnd[n-1] >= r.start {
			continue
		}
		judged++
		if r.ver != last.ver {
			stale++
		}
	}
	return judged, stale, completed(len(byEnd))
}

// kvCheck is a KV deployment's output-check state: the stale-read tally
// and each key's latest write so far.
type kvCheck struct {
	reads, judged, stale int64
	prior                []lastWrite
}

// checkKV validates the operations l executed since the last check,
// then forgets them: every operation succeeded and every read returned
// the digest of a value the benchmark preloaded or wrote for that key.
// It counts stale reads.
func checkKV(res *result, label string, st *stream, l *lane, c *kvCheck) {
	if c.prior == nil {
		c.prior = make([]lastWrite, len(st.keys))
	}
	byKey := make(map[uint32][]event)
	for _, r := range l.recs {
		res.attempted++
		if r.err {
			res.fail(1, "%s: %s of %s failed", label, opName(r.write), st.keys[r.key])
			continue
		}
		if !r.write {
			v, ok := st.known[digestKey{r.key, r.sum}]
			if !ok {
				res.fail(1, "%s: read of %s returned a digest of no value written to it", label, st.keys[r.key])
				continue
			}
			r.ver = v
			c.reads++
		}
		byKey[r.key] = append(byKey[r.key], event{r.start, r.end, r.ver, r.write})
	}
	l.recs = l.recs[:0]
	for k, evs := range byKey {
		j, s, next := staleReads(evs, c.prior[k])
		c.judged += int64(j)
		c.stale += int64(s)
		c.prior[k] = next
	}
}

// replyRef holds, per (key, version) state, the first reply seen for it.
// A read's state is fixed by the stream, so every architecture must give
// the same reply for the same state.
type replyRef map[[2]uint32][16]byte

// checkReplies validates the operations a catalog deployment's lane
// executed since the last check against ref, filling ref for states not
// seen before, then forgets them. Base is set up and measured first, so
// a state Base reached is judged against Base's reply.
func checkReplies(res *result, label string, st *stream, l *lane, ref replyRef, c *kvCheck) {
	for _, r := range l.recs {
		res.attempted++
		if r.err {
			res.fail(1, "%s: %s of %s failed", label, opName(r.write), st.keys[r.key])
			continue
		}
		if r.write {
			continue
		}
		c.reads++
		k := [2]uint32{r.key, r.ver}
		want, seen := ref[k]
		if !seen {
			ref[k] = r.sum
		} else if want != r.sum {
			res.fail(1, "%s: read of %s at version %d differs from the reference reply", label, st.keys[r.key], r.ver)
		}
	}
	l.recs = l.recs[:0]
}

func opName(write bool) string {
	if write {
		return "write"
	}
	return "read"
}
