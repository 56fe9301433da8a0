package dstruct

// Typed persistent objects: the secondary structures behind TagHash and
// TagList records. The top-level map stays the single source of truth for
// key lookup, expiry, and type; a non-string record's 8-byte payload holds
// one off-holder to an object header allocated from the same ralloc heap,
// so recovery GC traces the whole graph through the map filter and the
// allocator's recoverability criterion (§4.5) extends to every field node
// and list element.
//
// Both object kinds follow the same crash discipline as the map itself —
// flush the new block before the single-word link swing that makes it
// reachable, flush the swing, fence — with one refinement for the deque:
// only the *forward* chain (header head word, node next words) is
// authoritative. The tail word, the nodes' prev words, and the length and
// bytes counters are maintained eagerly but are repairable: a crash between
// a commit swing and the trailing bookkeeping stores leaves them stale, and
// RecoverRange rewalks every object after a dirty restart to fix them.
// This keeps every mutation's commit point a single 8-byte store, exactly
// the paper's "flush data, then swing one durable link" pattern, without
// needing a transaction log for the two-directional links.
//
// Object header layout (objHdrBytes = 32):
//
//	hash:  word 0 = bucket-array off-holder, word 1 = nBuckets,
//	       word 2 = field count, word 3 = graph bytes
//	list:  word 0 = head off-holder, word 1 = tail off-holder,
//	       word 2 = length, word 3 = graph bytes
//
// The graph-bytes word is the total persistent footprint of the secondary
// structure (header + bucket array + nodes); Attach reads it in O(1) per
// key to rebuild the LRU byte accounting (RecoverRange), and it is repaired
// together with the counters.
//
// Field node: word 0 = next off-holder, word 1 = flen<<32|vlen, then field
// bytes and value bytes (each padded to 8).
// List node: word 0 = next off-holder, word 1 = prev off-holder,
// word 2 = vlen, then value bytes (padded to 8).

import (
	"errors"

	"repro/internal/alloc"
	"repro/internal/pptr"
)

const (
	objHdrBytes = 32
	objOffBytes = 24 // graph-bytes word within an object header
	// hobjBuckets is the per-object bucket count: field sets are small
	// (YCSB-H uses tens of fields), so a fixed power of two keeps the
	// header compact; chains degrade gracefully for outliers.
	hobjBuckets = 8
	fldNodeHdr  = 16
	lstNodeHdr  = 24
)

// ErrWrongType reports an object operation applied to a record of another
// type (the server maps it to Redis's WRONGTYPE reply).
var ErrWrongType = errors.New("operation against a key holding the wrong kind of value")

// ErrNoMemory reports heap exhaustion inside an object operation.
var ErrNoMemory = errors.New("out of memory")

func fldNodeSize(flen, vlen uint64) uint64 { return fldNodeHdr + pad8(flen) + pad8(vlen) }
func lstNodeSize(vlen uint64) uint64       { return lstNodeHdr + pad8(vlen) }

// findNode locates key's record in the bucket chain, returning the holder
// of the link pointing at it and the record offset (0 if absent). The
// caller holds the bucket's stripe lock.
func (m *HashMap) findNode(bucket uint64, key []byte) (prev, off uint64) {
	prev = bucket
	off, _ = pptr.Unpack(bucket, m.r.Load(bucket))
	for off != 0 {
		if m.nodeKeyIs(off, key) {
			return prev, off
		}
		prev = off
		off, _ = pptr.Unpack(off, m.r.Load(off))
	}
	return prev, 0
}

// unlinkFree durably unlinks the record at off (prev holds the link to it)
// and releases its whole graph. The unlink is the single-word commit; the
// frees afterwards are crash-safe because an unreachable graph is exactly
// what recovery GC reclaims. Caller holds the stripe lock.
func (m *HashMap) unlinkFree(h alloc.Handle, prev, off uint64) {
	r := m.r
	next, _ := pptr.Unpack(off, r.Load(off))
	if next == 0 {
		r.Store(prev, pptr.Nil)
	} else {
		r.Store(prev, pptr.Pack(prev, next))
	}
	r.Flush(prev)
	r.Fence()
	m.freeObjectGraph(h, off)
	h.Free(off)
	r.Add(m.hdr+16, ^uint64(0))
	r.Flush(m.hdr + 16)
}

// freeObjectGraph releases a record's secondary structure (no-op for
// strings). The record must already be unreachable.
func (m *HashMap) freeObjectGraph(h alloc.Handle, off uint64) {
	tag := m.nodeTag(off)
	if tag == TagString {
		return
	}
	hdr, ok := m.nodeObjHdr(off)
	if !ok {
		return
	}
	switch tag {
	case TagHash:
		m.freeHashObj(h, hdr)
	case TagList:
		m.freeListObj(h, hdr)
	}
}

func (m *HashMap) freeHashObj(h alloc.Handle, hdr uint64) {
	r := m.r
	if arr, ok := pptr.Unpack(hdr, r.Load(hdr)); ok {
		nB := r.Load(hdr + 8)
		for i := uint64(0); i < nB; i++ {
			slot := arr + i*8
			n, _ := pptr.Unpack(slot, r.Load(slot))
			for n != 0 {
				next, _ := pptr.Unpack(n, r.Load(n))
				h.Free(n)
				n = next
			}
		}
		h.Free(arr)
	}
	h.Free(hdr)
}

func (m *HashMap) freeListObj(h alloc.Handle, hdr uint64) {
	r := m.r
	n, _ := pptr.Unpack(hdr, r.Load(hdr))
	for n != 0 {
		next, _ := pptr.Unpack(n, r.Load(n))
		h.Free(n)
		n = next
	}
	h.Free(hdr)
}

// newHashObj allocates and initializes an empty field hash (not yet
// reachable — the caller installs it behind a top-level record).
func (m *HashMap) newHashObj(h alloc.Handle) (uint64, bool) {
	hdr := h.Malloc(objHdrBytes)
	arr := h.Malloc(hobjBuckets * 8)
	if hdr == 0 || arr == 0 {
		if hdr != 0 {
			h.Free(hdr)
		}
		if arr != 0 {
			h.Free(arr)
		}
		return 0, false
	}
	r := m.r
	r.Zero(arr, hobjBuckets*8)
	r.FlushRange(arr, hobjBuckets*8)
	r.Store(hdr, pptr.Pack(hdr, arr))
	r.Store(hdr+8, hobjBuckets)
	r.Store(hdr+16, 0)
	r.Store(hdr+objOffBytes, objHdrBytes+hobjBuckets*8)
	r.FlushRange(hdr, objHdrBytes)
	return hdr, true
}

// newListObj allocates and initializes an empty deque.
func (m *HashMap) newListObj(h alloc.Handle) (uint64, bool) {
	hdr := h.Malloc(objHdrBytes)
	if hdr == 0 {
		return 0, false
	}
	r := m.r
	r.Store(hdr, pptr.Nil)
	r.Store(hdr+8, pptr.Nil)
	r.Store(hdr+16, 0)
	r.Store(hdr+objOffBytes, objHdrBytes)
	r.FlushRange(hdr, objHdrBytes)
	return hdr, true
}

// installObject creates and durably links a top-level record of the given
// tag whose payload points at objHdr. The object graph must be fully
// flushed already: the bucket link swing is the commit point that makes the
// whole object reachable at once. Caller holds the stripe lock and
// guarantees key is absent.
func (m *HashMap) installObject(h alloc.Handle, bucket uint64, key []byte, tag uint8, objHdr, expireAt uint64) bool {
	r := m.r
	size := hmNodeHdr + pad8(uint64(len(key))) + 8
	n := h.Malloc(size)
	if n == 0 {
		return false
	}
	r.Store(n+8, packLens(tag, uint64(len(key)), 8))
	r.Store(n+16, expireAt)
	r.WriteBytes(n+hmNodeHdr, key)
	p := n + hmNodeHdr + pad8(uint64(len(key)))
	r.Store(p, pptr.Pack(p, objHdr))
	if head, ok := pptr.Unpack(bucket, r.Load(bucket)); ok {
		r.Store(n, pptr.Pack(n, head))
	} else {
		r.Store(n, pptr.Nil)
	}
	r.FlushRange(n, size)
	r.Fence()
	//pmem:publish
	r.Store(bucket, pptr.Pack(bucket, n))
	r.Flush(bucket)
	r.Fence()
	r.Add(m.hdr+16, 1)
	r.Flush(m.hdr + 16)
	return true
}

// resolveLive locates key's live record of the wanted tag, returning its
// prev holder too (for callers that may unlink it). expired reports a
// record hidden by lazy expiry — never touched here; write paths that must
// reap it go through resolveWrite. Caller holds the stripe lock.
func (m *HashMap) resolveLive(bucket uint64, key []byte, want uint8, now uint64) (prev, off, hdr uint64, ok, expired bool, err error) {
	prev, off = m.findNode(bucket, key)
	if off == 0 {
		return prev, 0, 0, false, false, nil
	}
	if at := m.nodeExpire(off); at != 0 && at <= now {
		return prev, off, 0, false, true, nil
	}
	if m.nodeTag(off) != want {
		return prev, off, 0, false, false, ErrWrongType
	}
	hdr, _ = m.nodeObjHdr(off)
	return prev, off, hdr, true, false, nil
}

// resolveRead is resolveLive for pure readers (no unlink capability).
func (m *HashMap) resolveRead(bucket uint64, key []byte, want uint8, now uint64) (hdr uint64, ok, expired bool, err error) {
	_, _, hdr, ok, expired, err = m.resolveLive(bucket, key, want, now)
	return hdr, ok, expired, err
}

// resolveWrite locates key's record for an object mutation, reaping an
// expired record (of any type) in place — dead fields/elements must never
// resurrect into the new object. Returns the record's prev holder and
// offset (off 0 when the caller must create the object). Caller holds the
// stripe lock.
func (m *HashMap) resolveWrite(h alloc.Handle, bucket uint64, key []byte, want uint8, now uint64) (prev, off, hdr uint64, err error) {
	prev, off, hdr, live, expired, err := m.resolveLive(bucket, key, want, now)
	if expired {
		m.unlinkFree(h, prev, off)
		// prev still holds the link to the (possibly shortened) chain.
		return prev, 0, 0, nil
	}
	if err != nil {
		return prev, off, 0, err
	}
	if !live {
		return prev, 0, 0, nil
	}
	return prev, off, hdr, nil
}

// ----------------------------------------------------------------------
// Hash objects.

func (m *HashMap) hSlot(hdr uint64, field []byte) uint64 {
	arr, _ := pptr.Unpack(hdr, m.r.Load(hdr))
	nB := m.r.Load(hdr + 8)
	return arr + (fnv1a(field)&(nB-1))*8
}

func (m *HashMap) fldKey(off uint64) []byte {
	lens := m.r.Load(off + 8)
	f := make([]byte, lens>>32)
	m.r.ReadBytes(off+fldNodeHdr, f)
	return f
}

// fldKeyIs reports whether the field node at off holds field, comparing in
// place like nodeKeyIs.
func (m *HashMap) fldKeyIs(off uint64, field []byte) bool {
	return m.r.Load(off+8)>>32 == uint64(len(field)) && m.r.EqualBytes(off+fldNodeHdr, field)
}

func (m *HashMap) fldValue(off uint64) []byte {
	lens := m.r.Load(off + 8)
	flen, vlen := lens>>32, lens&0xFFFFFFFF
	v := make([]byte, vlen)
	m.r.ReadBytes(off+fldNodeHdr+pad8(flen), v)
	return v
}

func (m *HashMap) fldSize(off uint64) uint64 {
	lens := m.r.Load(off + 8)
	return fldNodeSize(lens>>32, lens&0xFFFFFFFF)
}

// hFind returns field's node offset in the object at hdr (0 if absent).
func (m *HashMap) hFind(hdr uint64, field []byte) uint64 {
	slot := m.hSlot(hdr, field)
	off, _ := pptr.Unpack(slot, m.r.Load(slot))
	for off != 0 {
		if m.fldKeyIs(off, field) {
			return off
		}
		off, _ = pptr.Unpack(off, m.r.Load(off))
	}
	return 0
}

// hsetOne inserts or replaces one field — the same alloc-flush-swing-free
// dance as the top-level SetExpire, inside the object's bucket chain.
func (m *HashMap) hsetOne(h alloc.Handle, hdr uint64, field, value []byte) (created bool, err error) {
	r := m.r
	flen, vlen := uint64(len(field)), uint64(len(value))
	size := fldNodeSize(flen, vlen)
	n := h.Malloc(size)
	if n == 0 {
		return false, ErrNoMemory
	}
	r.Store(n+8, flen<<32|vlen)
	r.WriteBytes(n+fldNodeHdr, field)
	r.WriteBytes(n+fldNodeHdr+pad8(flen), value)

	slot := m.hSlot(hdr, field)
	prev := slot
	off, _ := pptr.Unpack(slot, r.Load(slot))
	var old uint64
	for off != 0 {
		if m.fldKeyIs(off, field) {
			old = off
			break
		}
		prev = off
		off, _ = pptr.Unpack(off, r.Load(off))
	}
	var next uint64
	if old != 0 {
		next, _ = pptr.Unpack(old, r.Load(old))
	} else {
		next, _ = pptr.Unpack(slot, r.Load(slot))
		prev = slot
	}
	if next == 0 {
		r.Store(n, pptr.Nil)
	} else {
		r.Store(n, pptr.Pack(n, next))
	}
	r.FlushRange(n, size)
	r.Fence()
	//pmem:publish
	r.Store(prev, pptr.Pack(prev, n))
	r.Flush(prev)
	r.Fence()
	if old != 0 {
		oldSize := m.fldSize(old)
		h.Free(old)
		r.Add(hdr+objOffBytes, size-oldSize)
	} else {
		r.Add(hdr+16, 1)
		r.Flush(hdr + 16)
		r.Add(hdr+objOffBytes, size)
	}
	r.Flush(hdr + objOffBytes)
	return old == 0, nil
}

// hdelOne unlinks and frees one field, reporting whether it existed.
func (m *HashMap) hdelOne(h alloc.Handle, hdr uint64, field []byte) bool {
	r := m.r
	slot := m.hSlot(hdr, field)
	prev := slot
	off, _ := pptr.Unpack(slot, r.Load(slot))
	for off != 0 {
		next, _ := pptr.Unpack(off, r.Load(off))
		if m.fldKeyIs(off, field) {
			if next == 0 {
				r.Store(prev, pptr.Nil)
			} else {
				r.Store(prev, pptr.Pack(prev, next))
			}
			r.Flush(prev)
			r.Fence()
			size := m.fldSize(off)
			h.Free(off)
			r.Add(hdr+16, ^uint64(0))
			r.Flush(hdr + 16)
			r.Add(hdr+objOffBytes, ^(size - 1))
			r.Flush(hdr + objOffBytes)
			return true
		}
		prev = off
		off = next
	}
	return false
}

// HSet inserts or replaces the given field/value pairs under key, creating
// the hash if needed (reaping an expired record first). It returns how many
// fields were newly created and the object's total graph bytes afterwards
// (for LRU charging). Each pair commits individually with a single-word
// link swing, so a crash mid-HSET leaves every field wholly old or wholly
// new — never torn.
func (m *HashMap) HSet(h alloc.Handle, key []byte, pairs [][]byte, now uint64) (created int, objBytes uint64, err error) {
	if len(key) > MaxKeyLen {
		return 0, 0, ErrNoMemory
	}
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	_, off, hdr, err := m.resolveWrite(h, bucket, key, TagHash, now)
	if err != nil {
		return 0, 0, err
	}
	if off == 0 {
		newHdr, ok := m.newHashObj(h)
		if !ok {
			return 0, 0, ErrNoMemory
		}
		// Populate the still-unreachable object, then install it behind
		// one durable bucket-link swing: the whole HSET of a fresh key is
		// crash-atomic.
		for i := 0; i+1 < len(pairs); i += 2 {
			c, err := m.hsetOne(h, newHdr, pairs[i], pairs[i+1])
			if err != nil {
				m.freeHashObj(h, newHdr)
				return 0, 0, err
			}
			if c {
				created++
			}
		}
		if !m.installObject(h, bucket, key, TagHash, newHdr, 0) {
			m.freeHashObj(h, newHdr)
			return 0, 0, ErrNoMemory
		}
		return created, m.r.Load(newHdr + objOffBytes), nil
	}
	for i := 0; i+1 < len(pairs); i += 2 {
		c, err := m.hsetOne(h, hdr, pairs[i], pairs[i+1])
		if err != nil {
			return created, m.r.Load(hdr + objOffBytes), err
		}
		if c {
			created++
		}
	}
	return created, m.r.Load(hdr + objOffBytes), nil
}

// HGet returns field's value inside the hash at key. expired reports a
// record hidden by lazy expiry.
func (m *HashMap) HGet(key, field []byte, now uint64) (val []byte, ok, expired bool, err error) {
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	hdr, live, expired, err := m.resolveRead(bucket, key, TagHash, now)
	if !live {
		return nil, false, expired, err
	}
	n := m.hFind(hdr, field)
	if n == 0 {
		return nil, false, false, nil
	}
	return m.fldValue(n), true, false, nil
}

// HDel removes the given fields, deleting the whole record when the last
// field goes (Redis drops empty hashes). gone reports that deletion;
// objBytes is the remaining graph footprint otherwise.
func (m *HashMap) HDel(h alloc.Handle, key []byte, fields [][]byte, now uint64) (removed int, objBytes uint64, gone bool, err error) {
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	// An expired record reads as missing (removed 0); its space is left to
	// the expiry cycle rather than reclaimed on this path.
	prev, off, hdr, live, _, err := m.resolveLive(bucket, key, TagHash, now)
	if !live {
		return 0, 0, false, err
	}
	for _, f := range fields {
		if m.hdelOne(h, hdr, f) {
			removed++
		}
	}
	if m.r.Load(hdr+16) == 0 {
		m.unlinkFree(h, prev, off)
		return removed, 0, true, nil
	}
	return removed, m.r.Load(hdr + objOffBytes), false, nil
}

// HLen returns the field count (0 for a missing key).
func (m *HashMap) HLen(key []byte, now uint64) (n int, expired bool, err error) {
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	hdr, live, expired, err := m.resolveRead(bucket, key, TagHash, now)
	if !live {
		return 0, expired, err
	}
	return int(m.r.Load(hdr + 16)), false, nil
}

// HGetAll returns every field and value (parallel slices, chain order).
func (m *HashMap) HGetAll(key []byte, now uint64) (fields, values [][]byte, expired bool, err error) {
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	hdr, live, expired, err := m.resolveRead(bucket, key, TagHash, now)
	if !live {
		return nil, nil, expired, err
	}
	arr, _ := pptr.Unpack(hdr, m.r.Load(hdr))
	nB := m.r.Load(hdr + 8)
	for i := uint64(0); i < nB; i++ {
		slot := arr + i*8
		off, _ := pptr.Unpack(slot, m.r.Load(slot))
		for off != 0 {
			fields = append(fields, m.fldKey(off))
			values = append(values, m.fldValue(off))
			off, _ = pptr.Unpack(off, m.r.Load(off))
		}
	}
	return fields, values, false, nil
}

// ----------------------------------------------------------------------
// List objects.

func (m *HashMap) lstValue(off uint64) []byte {
	vlen := m.r.Load(off + 16)
	v := make([]byte, vlen)
	m.r.ReadBytes(off+lstNodeHdr, v)
	return v
}

// pushOne appends one element at the chosen end. The commit point is a
// single word: the header's head word (left push, or first element) or the
// old tail's next word (right push). Everything after the commit — the
// neighbor's prev word, the tail word, length and bytes — is repairable
// bookkeeping.
func (m *HashMap) pushOne(h alloc.Handle, hdr uint64, val []byte, left bool) error {
	r := m.r
	vlen := uint64(len(val))
	size := lstNodeSize(vlen)
	n := h.Malloc(size)
	if n == 0 {
		return ErrNoMemory
	}
	r.Store(n+16, vlen)
	r.WriteBytes(n+lstNodeHdr, val)
	head, _ := pptr.Unpack(hdr, r.Load(hdr))
	tail, _ := pptr.Unpack(hdr+8, r.Load(hdr+8))
	if left {
		if head == 0 {
			r.Store(n, pptr.Nil)
		} else {
			r.Store(n, pptr.Pack(n, head))
		}
		r.Store(n+8, pptr.Nil)
		r.FlushRange(n, size)
		r.Fence()
		//pmem:publish
		r.Store(hdr, pptr.Pack(hdr, n)) // commit
		r.Flush(hdr)
		r.Fence()
		if head != 0 {
			r.Store(head+8, pptr.Pack(head+8, n))
			r.Flush(head + 8)
		}
		if tail == 0 {
			r.Store(hdr+8, pptr.Pack(hdr+8, n))
			r.Flush(hdr + 8)
		}
	} else {
		r.Store(n, pptr.Nil)
		if tail == 0 {
			r.Store(n+8, pptr.Nil)
		} else {
			r.Store(n+8, pptr.Pack(n+8, tail))
		}
		r.FlushRange(n, size)
		r.Fence()
		// The commit word: the old tail's next word, or the head word when
		// this is the first element.
		commit := hdr
		if tail != 0 {
			commit = tail
		}
		//pmem:publish
		r.Store(commit, pptr.Pack(commit, n))
		r.Flush(commit)
		r.Fence()
		r.Store(hdr+8, pptr.Pack(hdr+8, n))
		r.Flush(hdr + 8)
	}
	r.Add(hdr+16, 1)
	r.Flush(hdr + 16)
	r.Add(hdr+objOffBytes, size)
	r.Flush(hdr + objOffBytes)
	r.Fence()
	return nil
}

// Push appends vals at the left or right end of the list at key, creating
// it if needed (reaping an expired record first). Returns the new length
// and the graph bytes for LRU charging.
func (m *HashMap) Push(h alloc.Handle, key []byte, vals [][]byte, left bool, now uint64) (length int, objBytes uint64, err error) {
	if len(key) > MaxKeyLen {
		return 0, 0, ErrNoMemory
	}
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	_, off, hdr, err := m.resolveWrite(h, bucket, key, TagList, now)
	if err != nil {
		return 0, 0, err
	}
	if off == 0 {
		newHdr, ok := m.newListObj(h)
		if !ok {
			return 0, 0, ErrNoMemory
		}
		for _, v := range vals {
			if err := m.pushOne(h, newHdr, v, left); err != nil {
				m.freeListObj(h, newHdr)
				return 0, 0, err
			}
		}
		if !m.installObject(h, bucket, key, TagList, newHdr, 0) {
			m.freeListObj(h, newHdr)
			return 0, 0, ErrNoMemory
		}
		hdr = newHdr
	} else {
		for _, v := range vals {
			if err := m.pushOne(h, hdr, v, left); err != nil {
				return int(m.r.Load(hdr + 16)), m.r.Load(hdr + objOffBytes), err
			}
		}
	}
	return int(m.r.Load(hdr + 16)), m.r.Load(hdr + objOffBytes), nil
}

// Pop removes and returns the element at the chosen end. Popping the last
// element deletes the whole record (Redis drops empty lists); gone reports
// that. The commit point is again one word: the head word (left pop), the
// new tail's next word (right pop), or the record unlink (last element).
func (m *HashMap) Pop(h alloc.Handle, key []byte, left bool, now uint64) (val []byte, ok bool, objBytes uint64, gone, expired bool, err error) {
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	prev, off, hdr, live, expired, err := m.resolveLive(bucket, key, TagList, now)
	if !live {
		return nil, false, 0, false, expired, err
	}
	r := m.r
	head, _ := pptr.Unpack(hdr, r.Load(hdr))
	if head == 0 {
		// Normal operation never leaves an empty list behind; treat
		// defensively as missing.
		return nil, false, 0, false, false, nil
	}
	if r.Load(hdr+16) <= 1 {
		// Last element: the record unlink is the commit, and the whole
		// graph is freed behind it.
		val = m.lstValue(head)
		m.unlinkFree(h, prev, off)
		return val, true, 0, true, false, nil
	}
	if left {
		victim := head
		next, _ := pptr.Unpack(victim, r.Load(victim))
		val = m.lstValue(victim)
		//pmem:publish
		r.Store(hdr, pptr.Pack(hdr, next)) // commit
		r.Flush(hdr)
		r.Fence()
		r.Store(next+8, pptr.Nil)
		r.Flush(next + 8)
		size := lstNodeSize(r.Load(victim + 16))
		h.Free(victim)
		r.Add(hdr+16, ^uint64(0))
		r.Flush(hdr + 16)
		r.Add(hdr+objOffBytes, ^(size - 1))
		r.Flush(hdr + objOffBytes)
		r.Fence()
	} else {
		tail, _ := pptr.Unpack(hdr+8, r.Load(hdr+8))
		victim := tail
		newTail, _ := pptr.Unpack(victim+8, r.Load(victim+8))
		val = m.lstValue(victim)
		//pmem:publish
		r.Store(newTail, pptr.Nil) // commit: forward chain now ends here
		r.Flush(newTail)
		r.Fence()
		r.Store(hdr+8, pptr.Pack(hdr+8, newTail))
		r.Flush(hdr + 8)
		size := lstNodeSize(r.Load(victim + 16))
		h.Free(victim)
		r.Add(hdr+16, ^uint64(0))
		r.Flush(hdr + 16)
		r.Add(hdr+objOffBytes, ^(size - 1))
		r.Flush(hdr + objOffBytes)
		r.Fence()
	}
	return val, true, r.Load(hdr + objOffBytes), false, false, nil
}

// LLen returns the list length (0 for a missing key).
func (m *HashMap) LLen(key []byte, now uint64) (n int, expired bool, err error) {
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	hdr, live, expired, err := m.resolveRead(bucket, key, TagList, now)
	if !live {
		return 0, expired, err
	}
	return int(m.r.Load(hdr + 16)), false, nil
}

// LRange returns the elements between start and stop inclusive, with Redis
// index semantics (negative counts from the tail; out-of-range clamps).
func (m *HashMap) LRange(key []byte, start, stop int64, now uint64) (vals [][]byte, expired bool, err error) {
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	hdr, live, expired, err := m.resolveRead(bucket, key, TagList, now)
	if !live {
		return nil, expired, err
	}
	n := int64(m.r.Load(hdr + 16))
	if start < 0 {
		start += n
	}
	if stop < 0 {
		stop += n
	}
	if start < 0 {
		start = 0
	}
	if stop >= n {
		stop = n - 1
	}
	if start > stop || n == 0 {
		return nil, false, nil
	}
	off, _ := pptr.Unpack(hdr, m.r.Load(hdr))
	for i := int64(0); off != 0 && i <= stop; i++ {
		if i >= start {
			vals = append(vals, m.lstValue(off))
		}
		off, _ = pptr.Unpack(off, m.r.Load(off))
	}
	return vals, false, nil
}

// ----------------------------------------------------------------------
// Post-crash repair.

// RecordMeta describes one record met by RecoverRange, after its repair.
type RecordMeta struct {
	Tag      uint8
	ExpireAt uint64 // unix milliseconds; 0 = immortal
	// Bytes is the record's whole persistent footprint: the top node plus,
	// for object records, the secondary-structure graph (its repaired
	// graph-bytes word).
	Bytes uint64

	m    *HashMap
	off  uint64
	klen uint64
}

// AppendKey appends the record's key bytes to dst. The walk reads no key
// bytes unless the caller asks for them here.
func (rec RecordMeta) AppendKey(dst []byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, rec.klen)...)
	rec.m.r.ReadBytes(rec.off+hmNodeHdr, dst[n:])
	return dst
}

// recoverBatch is how many bucket chains RecoverRange advances in step: one
// node per chain per step, with the steps' first loads issued back to back
// so that up to recoverBatch cache misses are in flight at once. Like the
// GC's traceBatch it is sized to a core's line-fill buffers.
const recoverBatch = 16

// RecoverRange is the one walk a restart makes over the map. For every
// record it repairs the words the crash discipline deliberately leaves
// repairable — list tail words, list prev links, and both object kinds'
// length/count and graph-bytes words — and then, if fn is non-nil, reports
// the record's metadata to fn. An object left empty by a crash between its
// last element's unlink and the record unlink is deleted outright (normal
// operation never leaves an empty object behind) and is not reported. The
// walk ends with a fence; on a cleanly closed heap it verifies and changes
// nothing.
//
// The walk holds every stripe lock throughout, so fn must not call back
// into the map. Records are reported in no fixed order: recoverBatch
// chains are interleaved so their node misses overlap.
func (m *HashMap) RecoverRange(h alloc.Handle, fn func(RecordMeta)) {
	r := m.r
	for i := range m.stripes {
		m.stripes[i].Lock()
	}
	defer func() {
		for i := range m.stripes {
			m.stripes[i].Unlock()
		}
	}()
	// Chain cursors: the holder of the link to the current node, the node,
	// and its word 0 (the next link).
	var prev, cur, word0 [recoverBatch]uint64
	active, b := 0, uint64(0)
	for {
		for active < recoverBatch && b < m.nB {
			slot := m.buckets + b*8
			b++
			if off, ok := pptr.Unpack(slot, r.Load(slot)); ok {
				prev[active], cur[active] = slot, off
				active++
			}
		}
		if active == 0 {
			break
		}
		for i := 0; i < active; i++ {
			word0[i] = r.Load(cur[i])
		}
		for i := 0; i < active; {
			off := cur[i]
			next, _ := pptr.Unpack(off, word0[i])
			if m.recoverRecord(h, prev[i], off, fn) {
				prev[i] = off
			}
			if next != 0 {
				cur[i] = next
				i++
				continue
			}
			// Chain done: the last active cursor takes this slot and is
			// advanced in this same step.
			active--
			prev[i], cur[i], word0[i] = prev[active], cur[active], word0[active]
		}
	}
	r.Fence()
}

// recoverRecord repairs and reports the record at off (prev holds the link
// to it) for RecoverRange, reporting false when it deleted an empty object.
func (m *HashMap) recoverRecord(h alloc.Handle, prev, off uint64, fn func(RecordMeta)) (kept bool) {
	r := m.r
	tag, klen, vlen := unpackLens(r.Load(off + 8))
	rec := RecordMeta{Tag: tag, ExpireAt: r.Load(off + 16), Bytes: hmNodeHdr + pad8(klen) + pad8(vlen),
		m: m, off: off, klen: klen}
	if tag != TagString {
		p := off + hmNodeHdr + pad8(klen)
		if hdr, ok := pptr.Unpack(p, r.Load(p)); ok {
			empty := false
			switch tag {
			case TagHash:
				empty = m.repairHash(hdr)
			case TagList:
				empty = m.repairList(hdr)
			}
			if empty {
				m.unlinkFree(h, prev, off)
				return false
			}
			rec.Bytes += r.Load(hdr + objOffBytes)
		}
	}
	if fn != nil {
		fn(rec)
	}
	return true
}

// repairHash recomputes the field count and graph bytes from the chains,
// fixing the header words on mismatch. Reports whether the hash is empty.
func (m *HashMap) repairHash(hdr uint64) (empty bool) {
	r := m.r
	arr, ok := pptr.Unpack(hdr, r.Load(hdr))
	if !ok {
		return true
	}
	nB := r.Load(hdr + 8)
	count, bytes := uint64(0), objHdrBytes+nB*8
	for i := uint64(0); i < nB; i++ {
		slot := arr + i*8
		off, _ := pptr.Unpack(slot, r.Load(slot))
		for off != 0 {
			count++
			bytes += m.fldSize(off)
			off, _ = pptr.Unpack(off, r.Load(off))
		}
	}
	if r.Load(hdr+16) != count {
		r.Store(hdr+16, count)
		r.Flush(hdr + 16)
	}
	if r.Load(hdr+objOffBytes) != bytes {
		r.Store(hdr+objOffBytes, bytes)
		r.Flush(hdr + objOffBytes)
	}
	return count == 0
}

// repairList rewalks the authoritative forward chain, fixing every node's
// prev word, the tail word, and the length/bytes words. Reports whether
// the list is empty.
func (m *HashMap) repairList(hdr uint64) (empty bool) {
	r := m.r
	count, bytes := uint64(0), uint64(objHdrBytes)
	var last uint64
	off, _ := pptr.Unpack(hdr, r.Load(hdr))
	for off != 0 {
		wantPrev := uint64(pptr.Nil)
		if last != 0 {
			wantPrev = pptr.Pack(off+8, last)
		}
		if r.Load(off+8) != wantPrev {
			r.Store(off+8, wantPrev)
			r.Flush(off + 8)
		}
		count++
		bytes += lstNodeSize(r.Load(off + 16))
		last = off
		off, _ = pptr.Unpack(off, r.Load(off))
	}
	wantTail := uint64(pptr.Nil)
	if last != 0 {
		wantTail = pptr.Pack(hdr+8, last)
	}
	if r.Load(hdr+8) != wantTail {
		r.Store(hdr+8, wantTail)
		r.Flush(hdr + 8)
	}
	if r.Load(hdr+16) != count {
		r.Store(hdr+16, count)
		r.Flush(hdr + 16)
	}
	if r.Load(hdr+objOffBytes) != bytes {
		r.Store(hdr+objOffBytes, bytes)
		r.Flush(hdr + objOffBytes)
	}
	return count == 0
}

// TypeTag returns the record's type tag and expiry stamp without touching
// the value (the kvstore TypeOf / per-type scan primitive).
func (m *HashMap) TypeTag(key []byte) (tag uint8, expireAt uint64, ok bool) {
	bucket, mu := m.slot(key)
	mu.Lock()
	defer mu.Unlock()
	_, off := m.findNode(bucket, key)
	if off == 0 {
		return TagString, 0, false
	}
	return m.nodeTag(off), m.nodeExpire(off), true
}

// RangeTyped calls fn for every record — including expired ones — with its
// type tag and expiry stamp; value is the raw payload for object records.
// Same locking contract as Range.
func (m *HashMap) RangeTyped(fn func(key, value []byte, tag uint8, expireAt uint64) bool) {
	for i := uint64(0); i < m.nB; i++ {
		mu := m.stripeFor(i)
		mu.Lock()
		slot := m.buckets + i*8
		off, _ := pptr.Unpack(slot, m.r.Load(slot))
		for off != 0 {
			if !fn(m.nodeKey(off), m.nodeValue(off), m.nodeTag(off), m.nodeExpire(off)) {
				mu.Unlock()
				return
			}
			off, _ = pptr.Unpack(off, m.r.Load(off))
		}
		mu.Unlock()
	}
}
