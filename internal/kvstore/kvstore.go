// Package kvstore is the memcached-as-a-library key-value store of the
// paper's application study (§6.3): "we modified it to function as a
// library rather than a stand-alone server: instead of sending requests
// over a socket, the client application makes direct function calls into
// the key-value code". The store keeps all data in a persistent hash map
// over a pluggable allocator, so the YCSB experiment isolates allocator
// behavior exactly as the paper's does.
//
// Records may carry an expiration deadline (a TTL, cache-style). The
// deadline is an absolute unix-millisecond stamp persisted inside the same
// allocation as the record (dstruct hash-map node word 2), so recovery
// needs no separate TTL log: one GC + Range pass rebuilds the LRU byte
// accounting and the volatile expiry index together, and because the stamp
// is wall-clock absolute, a key that expired before a crash is still
// expired after recovery — expiration survives kill -9 for free. Reads
// apply *lazy* expiry (a dead record is reported missing without being
// touched); space is reclaimed by ReclaimExpired, which the serving layer
// drives from its active expiry cycle.
package kvstore

import (
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/dstruct"
	"repro/internal/ralloc"
)

// PTTL sentinels, Redis-style (milliseconds otherwise).
const (
	// TTLMissing reports a key that does not exist (or has expired).
	TTLMissing = -2
	// TTLNone reports a key that exists but carries no deadline.
	TTLNone = -1
)

// Type is the kind of value a key holds. Every record carries a type tag in
// its persistent header (dstruct node lens word), so the type survives
// crashes with the data and costs the string fast path nothing: the tag
// shares the word every read already decodes.
type Type uint8

const (
	// TypeNone reports a missing (or expired) key.
	TypeNone Type = iota
	// TypeString is a plain byte-string value.
	TypeString
	// TypeHash is a field/value hash (HSET family).
	TypeHash
	// TypeList is a doubly-linked deque (LPUSH family).
	TypeList
)

// String renders the type the way Redis's TYPE command does.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeHash:
		return "hash"
	case TypeList:
		return "list"
	}
	return "none"
}

func typeFromTag(tag uint8) Type {
	switch tag {
	case dstruct.TagHash:
		return TypeHash
	case dstruct.TagList:
		return TypeList
	}
	return TypeString
}

// ErrWrongType reports an operation applied to a key holding another kind
// of value (the serving layer maps it to Redis's WRONGTYPE error).
var ErrWrongType = dstruct.ErrWrongType

// ErrNoMemory reports heap exhaustion inside an object operation.
var ErrNoMemory = dstruct.ErrNoMemory

// Store is a library-mode key-value store.
type Store struct {
	a   alloc.Allocator
	m   *dstruct.HashMap
	lru *lruIndex    // nil when the store is unbounded
	exp *expiryIndex // volatile deadline index (always present)
	now func() int64 // unix ms clock; swappable for deterministic tests

	hits, misses, sets, deletes atomic.Uint64
	expired, reclaimed          atomic.Uint64
}

// Stats is a snapshot of operation counters.
type Stats struct {
	Hits, Misses, Sets, Deletes, Evictions uint64
	// Expired counts reads answered "missing" by lazy expiry; Reclaimed
	// counts records actively deleted by ReclaimExpired; TTLd is the
	// number of keys currently carrying a deadline.
	Expired, Reclaimed, TTLd uint64
	Bytes                    uint64
}

func wallClock() int64 { return time.Now().UnixMilli() }

// Open creates an unbounded store, returning it and the root offset of its
// hash map header for persistent-root registration.
func Open(a alloc.Allocator, h alloc.Handle, buckets int) (*Store, uint64) {
	m, root := dstruct.NewHashMap(a, h, buckets)
	return &Store{a: a, m: m, exp: newExpiryIndex(), now: wallClock}, root
}

// OpenBounded creates a store with a memory budget: once the (approximate)
// footprint of the records exceeds maxBytes, Set evicts least-recently-used
// records, memcached-style. Eviction frees the victims' blocks through the
// allocator — the churn path of a full cache.
func OpenBounded(a alloc.Allocator, h alloc.Handle, buckets int, maxBytes uint64) (*Store, uint64) {
	s, root := Open(a, h, buckets)
	s.lru = newLRUIndex(maxBytes)
	return s, root
}

// Filter returns the recovery GC filter for a store rooted at root without
// attaching the store. Restart sequences need the filter *before*
// heap.Recover (to register the root), but Attach now repairs object
// structures and rebuilds indexes — work that must not run, and must not
// run twice, against a still-unrecovered heap. Register Filter first,
// Recover, then Attach.
func Filter(a alloc.Allocator, root uint64) ralloc.Filter {
	return dstruct.HashMapFilter(a.Region())
}

// Attach re-opens a store whose hash-map header is at root (after restart
// or recovery), rebuilding the volatile expiry index by walking the
// persistent map. The heap must already be recovered (register Filter with
// GetRoot, then Recover, then Attach): attach repairs the repairable words
// of object secondary structures, which mutates and frees blocks. The
// store re-attaches unbounded; like memcached's, the LRU recency state is
// transient and does not survive restarts. A store that was bounded before
// the restart should use AttachBounded instead, or the memory budget is
// silently dropped.
func Attach(a alloc.Allocator, root uint64) *Store {
	s := &Store{a: a, m: dstruct.AttachHashMap(a, root), exp: newExpiryIndex(), now: wallClock}
	// One walk repairs the repairable words of object secondary structures
	// (list tail/prev hints, length and bytes counters) and rebuilds the
	// expiry index; only records with a deadline have their key read.
	var buf []byte
	s.m.RecoverRange(a.NewHandle(), func(rec dstruct.RecordMeta) {
		if rec.ExpireAt != 0 {
			buf = rec.AppendKey(buf[:0])
			s.exp.set(string(buf), int64(rec.ExpireAt))
		}
	})
	return s
}

// AttachBounded re-opens a bounded store at root, rebuilding the transient
// LRU index and the expiry index in one walk of the persistent map. Recency
// order across the restart is arbitrary (walk order), like memcached's cold
// LRU after a reboot, but the byte accounting is exact — each record is
// charged its full persistent footprint, object secondary structures (hash
// fields, list nodes) included — so the budget is enforced from the first
// Set onward. Records whose persisted deadline has already passed are
// hinted to the expiry index (so the cycle reclaims them) but *not* charged
// to the budget: they are dead to every reader, and charging them could
// evict live keys to make room for corpses. If the persisted image already
// exceeds maxBytes — the budget may have been lowered across the restart —
// the overage is evicted immediately.
func AttachBounded(a alloc.Allocator, root uint64, maxBytes uint64) *Store {
	s := &Store{a: a, m: dstruct.AttachHashMap(a, root), exp: newExpiryIndex(), now: wallClock}
	s.lru = newLRUIndex(maxBytes)
	now := s.now()
	var buf []byte
	s.m.RecoverRange(a.NewHandle(), func(rec dstruct.RecordMeta) {
		buf = rec.AppendKey(buf[:0])
		key := string(buf)
		if at := int64(rec.ExpireAt); at != 0 {
			s.exp.set(key, at)
			if at <= now {
				return // dead record: hinted for reclaim, not charged
			}
		}
		s.lru.prime(key, rec.Bytes)
	})
	if victims := s.lru.evictOver(); len(victims) > 0 {
		h := a.NewHandle()
		for _, victim := range victims {
			if s.m.Delete(h, []byte(victim)) {
				s.deletes.Add(1)
				s.exp.remove(victim)
			}
		}
	}
	return s
}

// SetClock replaces the store's wall clock (unix milliseconds). Tests use it
// to step time deterministically; production code never calls it.
func (s *Store) SetClock(now func() int64) { s.now = now }

// Now returns the store's current clock reading in unix milliseconds.
func (s *Store) Now() int64 { return s.now() }

// Get fetches a string value. Missing, expired, and non-string keys all
// report ok=false; use GetBytes to distinguish a WRONGTYPE record.
func (s *Store) Get(key string) (string, bool) {
	v, ok, _ := s.GetBytes([]byte(key))
	if !ok {
		return "", false
	}
	return string(v), true
}

// Set inserts or replaces a value; false reports heap exhaustion.
func (s *Store) Set(h alloc.Handle, key, value string) bool {
	return s.SetBytes(h, []byte(key), []byte(value))
}

// SetBytes avoids string conversion on hot update paths. Like Redis SET, it
// clears any previous deadline on the key.
func (s *Store) SetBytes(h alloc.Handle, key, value []byte) bool {
	return s.SetBytesExpire(h, key, value, 0)
}

// SetBytesExpire inserts or replaces a value with an absolute deadline
// (unix milliseconds; 0 = immortal). The deadline is persisted in the
// record's own allocation before the record becomes reachable, so an
// acknowledged TTL'd SET can never recover as an immortal key.
func (s *Store) SetBytesExpire(h alloc.Handle, key, value []byte, deadline int64) bool {
	if !s.m.SetExpire(h, key, value, uint64(deadline)) {
		return false
	}
	s.sets.Add(1)
	if deadline != 0 {
		s.exp.set(string(key), deadline)
	} else if s.exp.tracked() != 0 {
		// Clearing a possible stale hint only matters when hints exist at
		// all: immortal hot-path Sets in TTL-free workloads skip the index
		// (and the key's string conversion) entirely.
		s.exp.remove(string(key))
	}
	if s.lru != nil {
		for _, victim := range s.lru.update(string(key), footprint(len(key), len(value))) {
			if s.m.Delete(h, []byte(victim)) {
				s.deletes.Add(1)
				s.exp.remove(victim)
			}
		}
	}
	return true
}

// GetBytes avoids string conversion on hot read paths. Expiry is lazy: a
// record past its persisted deadline is reported missing — without deleting
// it (no allocation, no frees on the read path); the active expiry cycle
// reclaims the space later. A key holding a hash or list reports
// ErrWrongType (ok=false): string reads never expose object payloads.
func (s *Store) GetBytes(key []byte) ([]byte, bool, error) {
	v, _, ok, err := s.GetBytesExpire(key)
	return v, ok, err
}

// GetBytesExpire is GetBytes returning the record's deadline too (0 =
// immortal) — the read-modify-write paths (APPEND) use it to preserve a
// key's TTL across the rewrite.
func (s *Store) GetBytesExpire(key []byte) (value []byte, deadline int64, ok bool, err error) {
	v, at, tag, ok := s.m.GetTyped(key)
	if ok && at != 0 && int64(at) <= s.now() {
		s.expired.Add(1)
		s.misses.Add(1)
		return nil, 0, false, nil
	}
	if !ok {
		s.misses.Add(1)
		return nil, 0, false, nil
	}
	if tag != dstruct.TagString {
		return nil, 0, false, ErrWrongType
	}
	s.hits.Add(1)
	if s.lru != nil {
		s.lru.touch(string(key))
	}
	return v, int64(at), true, nil
}

// TypeOf reports the kind of value key holds (TypeNone for a missing or
// lazily-expired key). It reads only the record's header words.
func (s *Store) TypeOf(key []byte) Type {
	tag, at, ok := s.m.TypeTag(key)
	if !ok {
		return TypeNone
	}
	if at != 0 && int64(at) <= s.now() {
		s.expired.Add(1)
		return TypeNone
	}
	return typeFromTag(tag)
}

// Expire sets key's absolute deadline (unix milliseconds), reporting whether
// the key existed (live). A deadline at or before now makes the key expire
// immediately. The stamp is updated in place — one word, flushed and fenced
// before Expire returns — so an acknowledged EXPIRE is durable and a crash
// can only leave the old or the new deadline, never a torn state.
func (s *Store) Expire(key string, deadline int64) bool {
	_, ok := s.m.UpdateExpire([]byte(key), uint64(deadline), uint64(s.now()))
	if ok {
		s.exp.set(key, deadline)
	}
	return ok
}

// Persist clears key's deadline, reporting whether a live key actually had
// one (Redis PERSIST semantics).
func (s *Store) Persist(key string) bool {
	prev, ok := s.m.UpdateExpire([]byte(key), 0, uint64(s.now()))
	if ok {
		s.exp.remove(key)
	}
	return ok && prev != 0
}

// PTTL returns key's remaining lifetime in milliseconds, TTLNone (-1) for a
// live key with no deadline, or TTLMissing (-2) for a missing or expired
// key.
func (s *Store) PTTL(key string) int64 {
	_, at, ok := s.m.GetExpire([]byte(key))
	if !ok {
		return TTLMissing
	}
	if at == 0 {
		return TTLNone
	}
	rem := int64(at) - s.now()
	if rem <= 0 {
		return TTLMissing
	}
	return rem
}

// ReclaimExpired deletes up to max records whose deadline has passed,
// returning how many it freed — the active half of expiration. Candidates
// come from the volatile index, but each deletion re-checks the *persisted*
// stamp under the record's stripe lock (DeleteExpired), so a key
// concurrently re-SET or PERSISTed is never swept. The serving layer calls
// this from its expiry cycle under the checkpoint barrier.
func (s *Store) ReclaimExpired(h alloc.Handle, max int) int {
	n := 0
	for _, cand := range s.ExpiredCandidates(max) {
		if s.ReclaimIfExpired(h, cand.Key, cand.At) {
			n++
		}
	}
	return n
}

// ExpiredCandidate is one sampled (key, hint-deadline) pair from the
// volatile index. A caller that must interleave its own work with each
// deletion — a replicating primary propagates every reclaim as a DEL under
// the key's lock — samples with ExpiredCandidates and confirms each key with
// ReclaimIfExpired instead of using ReclaimExpired's batch loop.
type ExpiredCandidate struct {
	Key string
	At  int64 // sampled hint deadline, passed back to ReclaimIfExpired
}

// ExpiredCandidates samples up to max keys whose volatile hint has passed.
// Candidates are hints, possibly stale: only ReclaimIfExpired, which
// re-checks the persisted stamp, may act on one.
func (s *Store) ExpiredCandidates(max int) []ExpiredCandidate {
	sampled := s.exp.sample(max, s.now())
	if len(sampled) == 0 {
		return nil
	}
	out := make([]ExpiredCandidate, len(sampled))
	for i, c := range sampled {
		out[i] = ExpiredCandidate{Key: c.key, At: c.at}
	}
	return out
}

// ReclaimIfExpired is the single-key body of ReclaimExpired: it deletes key
// iff its *persisted* stamp has passed (checked under the stripe lock),
// repairs the volatile hint otherwise, and reports whether it freed the
// record. hintAt must be the At the key was sampled with, so a hint
// refreshed by a concurrent re-SETEX survives the cleanup.
func (s *Store) ReclaimIfExpired(h alloc.Handle, key string, hintAt int64) bool {
	if s.m.DeleteExpired(h, []byte(key), uint64(s.now())) {
		s.deletes.Add(1)
		s.reclaimed.Add(1)
		// Conditional removal: a concurrent SETEX may have re-created
		// the key and refreshed its hint between our delete and here;
		// that fresh hint must survive for the record to be reclaimed
		// when it expires.
		s.exp.removeIf(key, hintAt)
		if s.lru != nil {
			s.lru.remove(key)
		}
		return true
	}
	// The persisted stamp disagrees with the sampled hint (the key was
	// deleted, re-SET, or PERSISTed since, possibly by writers racing each
	// other): repair the hint from the current stamp so phantom entries
	// don't get re-sampled every cycle.
	_, at, ok := s.m.GetExpire([]byte(key))
	persisted := int64(0)
	if ok {
		persisted = int64(at)
	}
	s.exp.fix(key, hintAt, persisted)
	return false
}

// Delete removes a key. The return reports whether an *observably live* key
// was deleted (Redis DEL semantics): deleting an expired-but-unreclaimed
// record frees its space but returns false, since reads already reported
// the key gone. Callers wanting same-key atomicity with read-modify-write
// sequences must serialize externally (the server's keyLock).
func (s *Store) Delete(h alloc.Handle, key string) bool {
	_, at, ok := s.m.GetExpire([]byte(key))
	live := ok && (at == 0 || int64(at) > s.now())
	if !s.m.Delete(h, []byte(key)) {
		return false
	}
	s.deletes.Add(1)
	s.exp.remove(key)
	if s.lru != nil {
		s.lru.remove(key)
	}
	return live
}

// Len returns the number of records, including expired records not yet
// reclaimed (they still occupy heap, exactly like Redis's DBSIZE).
func (s *Store) Len() int { return s.m.Len() }

// Range calls fn for every *live string* record until fn returns false:
// stamp-expired records are skipped (a reader must never observe a value
// the read path already reports gone), and typed objects are skipped
// because their payload is not a client value — use Scan for a type-aware
// walk. fn runs under the map's stripe locks and must not call back into
// the store; to mutate, collect keys first and then Set/Delete them.
func (s *Store) Range(fn func(key, value []byte) bool) {
	now := s.now()
	s.m.RangeTyped(func(key, value []byte, tag uint8, at uint64) bool {
		if at != 0 && int64(at) <= now {
			return true
		}
		if tag != dstruct.TagString {
			return true
		}
		return fn(key, value)
	})
}

// Scan calls fn with the key and type of every live record (expired records
// skipped), in map walk order. Same locking contract as Range.
func (s *Store) Scan(fn func(key []byte, typ Type) bool) {
	now := s.now()
	s.m.RangeMeta(func(key []byte, tag uint8, at uint64, _ uint64) bool {
		if at != 0 && int64(at) <= now {
			return true
		}
		return fn(key, typeFromTag(tag))
	})
}

// ScanCursor walks the live keyspace from bucket `cursor`, emitting whole
// buckets until at least `count` keys have been emitted (count is a soft
// target, exactly like Redis's SCAN COUNT: a bucket is never split across
// calls, so a resumed walk never skips or repeats a stable key). It returns
// the bucket to resume from and whether the walk completed. Guarantees
// match Redis: every key present for the whole iteration is returned at
// least once; keys created or deleted mid-iteration may or may not appear.
func (s *Store) ScanCursor(cursor uint64, count int, fn func(key []byte, typ Type)) (next uint64, done bool) {
	now := s.now()
	nb := s.m.Buckets()
	if count < 1 {
		count = 1
	}
	emitted := 0
	for b := cursor; b < nb; b++ {
		s.m.RangeBucketMeta(b, func(key []byte, tag uint8, at uint64) {
			if at != 0 && int64(at) <= now {
				return
			}
			emitted++
			fn(key, typeFromTag(tag))
		})
		if emitted >= count {
			if b+1 >= nb {
				return 0, true
			}
			return b + 1, false
		}
	}
	return 0, true
}

// TypeCounts is a per-type census of the live keyspace.
type TypeCounts struct {
	Strings, Hashes, Lists int
}

// CountTypes walks the live keyspace and tallies it per type (INFO's
// keyspace-by-type section; expired records are not counted).
func (s *Store) CountTypes() TypeCounts {
	var tc TypeCounts
	s.Scan(func(_ []byte, typ Type) bool {
		switch typ {
		case TypeHash:
			tc.Hashes++
		case TypeList:
			tc.Lists++
		default:
			tc.Strings++
		}
		return true
	})
	return tc
}

// DeleteAll removes every record — stamp-expired corpses included, which a
// Range-based sweep would now skip — freeing whole object graphs. It
// returns how many observably-live keys were removed (FLUSHALL's walk).
func (s *Store) DeleteAll(h alloc.Handle) int {
	var keys []string
	s.m.RangeTyped(func(key, _ []byte, _ uint8, _ uint64) bool {
		keys = append(keys, string(key))
		return true
	})
	n := 0
	for _, k := range keys {
		if s.Delete(h, k) {
			n++
		}
	}
	return n
}

// Bounded reports whether the store enforces a memory budget.
func (s *Store) Bounded() bool { return s.lru != nil }

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Sets:      s.sets.Load(),
		Deletes:   s.deletes.Load(),
		Expired:   s.expired.Load(),
		Reclaimed: s.reclaimed.Load(),
		TTLd:      uint64(s.exp.tracked()),
	}
	if s.lru != nil {
		st.Evictions = s.lru.Evicted()
		st.Bytes = s.lru.Bytes()
	}
	return st
}

// Filter returns the recovery filter for the store's hash map.
func (s *Store) Filter() ralloc.Filter { return s.m.Filter() }
