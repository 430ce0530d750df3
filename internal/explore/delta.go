package explore

// skipStored is the first half of delta re-exploration: after a space
// is edited (configurations added, removed, or retuned), only the
// configurations whose canonical identity is absent from the memo and
// its backing store are measured — the present ones are decided here
// as skipped, without even loading their vectors. Run then walks the
// absent rest in one edgeless pass; their fresh measurements write
// through to the backing as usual, so the store afterwards covers the
// edited space and a plain warm run produces the full merged report.
//
// The skip pass runs in input order on the coordinator, so Observe
// sees one deterministic prefix regardless of the worker count.
func (st *runState) skipStored() {
	n := len(st.cfgs)
	present := make(map[int32]bool)
	for i := 0; i < n; i++ {
		if c := st.canon[i]; int(c) == i && st.req.Memo.peek(st.memoKey(i)) {
			present[c] = true
		}
	}
	for i := 0; i < n; i++ {
		if present[st.canon[i]] {
			st.skip(i)
		}
	}
}
