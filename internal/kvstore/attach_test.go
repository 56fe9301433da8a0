package kvstore

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/dstruct"
	"repro/internal/pmem"
	"repro/internal/ralloc"
)

// Attach and AttachBounded repair and index the map in one walk. These
// tests crash a heap holding string, TTL'd, hash and list records at every
// store of an RPUSH and of the HDEL that empties a one-field hash, then
// attach each crashed image twice: with the one-walk Attach, and with the
// two-pass sequence it replaced (repair every object, then walk the
// repaired map for the index metadata). Both must yield the same store.

type attachCrash struct{}

var attachCfg = ralloc.Config{SBRegion: 1 << 20, GrowthChunk: 1 << 20}

// attachBudget is far above the test keyspace: nothing is evicted, so
// the rebuilt LRU accounting is compared whole.
const attachBudget = 64 << 20

// attachCrashImage builds the keyspace, crashes at the k-th persistent store
// of the armed phase, and returns the crashed region's image. done reports
// that the armed phase finished without the hook firing.
func attachCrashImage(t *testing.T, k int, now int64) (img []byte, root uint64, done bool) {
	t.Helper()
	countdown, armed := 0, false
	cfg := attachCfg
	cfg.Pmem = pmem.Config{Mode: pmem.ModeCrashSim, StoreHook: func() {
		if armed {
			if countdown--; countdown == 0 {
				panic(attachCrash{})
			}
		}
	}}
	h, _, err := ralloc.Open("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := h.AsAllocator()
	hd := a.NewHandle()
	s, root := Open(a, hd, 64)
	h.SetRoot(0, root)
	for i := 0; i < 60; i++ {
		deadline := int64(0)
		switch i % 3 {
		case 1:
			deadline = now + int64(time.Hour/time.Millisecond) + int64(i) // live
		case 2:
			deadline = now - int64(time.Hour/time.Millisecond) - int64(i) // lapsed
		}
		key := []byte(fmt.Sprintf("s-%02d", i))
		if !s.SetBytesExpire(hd, key, []byte(fmt.Sprintf("value-%02d", i)), deadline) {
			t.Fatal("OOM")
		}
	}
	for i := 0; i < 6; i++ {
		hk, lk := []byte(fmt.Sprintf("h-%02d", i)), []byte(fmt.Sprintf("l-%02d", i))
		for j := 0; j < 4; j++ {
			if _, err := s.HSet(hd, hk, []byte(fmt.Sprintf("f%d", j)), []byte(fmt.Sprintf("hv-%d-%d", i, j))); err != nil {
				t.Fatal(err)
			}
			if _, err := s.RPush(hd, lk, []byte(fmt.Sprintf("lv-%d-%d", i, j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !s.Expire("h-01", now+int64(time.Hour/time.Millisecond)) || !s.Expire("l-01", now-1) {
		t.Fatal("Expire on an object record failed")
	}
	if _, err := s.HSet(hd, []byte("lone"), []byte("f"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	func() {
		defer func() {
			armed = false
			if r := recover(); r != nil {
				if _, ok := r.(attachCrash); !ok {
					panic(r)
				}
			}
		}()
		countdown, armed = k, true
		if _, err := s.RPush(hd, []byte("l-00"), []byte("pushed")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.HDel(hd, []byte("lone"), []byte("f")); err != nil {
			t.Fatal(err)
		}
		done = true
	}()
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.Region().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), root, done
}

// recordState is what a restart rebuilds for one record.
type recordState struct {
	Tag      uint8
	ExpireAt uint64
	Bytes    uint64
	Fields   []string // hash "field=value", sorted; list elements in order
	Count    int      // HLen / LLen
}

// attachState is what a restart rebuilds for the whole store.
type attachState struct {
	Len      int
	Expiry   map[string]int64
	LRUBytes uint64
	LRUKeys  map[string]uint64
	Records  map[string]recordState
	Emptied  bool // the emptied hash existed before attach and not after
}

// twoPassAttach is the restart sequence the one-walk Attach replaced: a
// repair-only walk over every record, then a second walk over the repaired
// map that rebuilds the expiry index and, for a bounded store, the LRU.
func twoPassAttach(h *ralloc.Heap, root uint64, bounded bool) *Store {
	a := h.AsAllocator()
	s := &Store{a: a, m: dstruct.AttachHashMap(a, root), exp: newExpiryIndex(), now: wallClock}
	if bounded {
		s.lru = newLRUIndex(attachBudget)
	}
	s.m.RecoverRange(a.NewHandle(), nil)
	now := s.now()
	s.m.RangeMeta(func(key []byte, _ uint8, at uint64, bytes uint64) bool {
		if at != 0 {
			s.exp.set(string(key), int64(at))
			if int64(at) <= now {
				return true
			}
		}
		if bounded {
			s.lru.prime(string(key), bytes)
		}
		return true
	})
	return s
}

func attachImage(t *testing.T, img []byte, root uint64, bounded, onePass bool) attachState {
	t.Helper()
	cfg := attachCfg
	cfg.Pmem = pmem.Config{Mode: pmem.ModeCrashSim}
	region, err := pmem.LoadRegion(bytes.NewReader(img), cfg.Pmem)
	if err != nil {
		t.Fatal(err)
	}
	h, dirty, err := ralloc.Attach(region, cfg)
	if err != nil || !dirty {
		t.Fatalf("attach: dirty=%v err=%v", dirty, err)
	}
	a := h.AsAllocator()
	h.GetRoot(0, Filter(a, root))
	if _, err := h.Recover(); err != nil {
		t.Fatal(err)
	}
	_, _, hadLone := dstruct.AttachHashMap(a, root).TypeTag([]byte("lone"))

	var s *Store
	switch {
	case !onePass:
		s = twoPassAttach(h, root, bounded)
	case bounded:
		s = AttachBounded(a, root, attachBudget)
	default:
		s = Attach(a, root)
	}
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	st := attachState{Len: s.Len(), Expiry: map[string]int64{}, Records: map[string]recordState{}}
	for k, v := range s.exp.at {
		st.Expiry[k] = v
	}
	if s.lru != nil {
		st.LRUBytes = s.lru.Bytes()
		st.LRUKeys = map[string]uint64{}
		for k, e := range s.lru.byKey {
			st.LRUKeys[k] = e.Value.(*lruEntry).size
		}
	}
	far := wallClock() - int64(24*time.Hour/time.Millisecond) // every stamp is live at this clock
	s.SetClock(func() int64 { return far })
	s.m.RangeMeta(func(key []byte, tag uint8, at, bytes uint64) bool {
		st.Records[string(key)] = recordState{Tag: tag, ExpireAt: at, Bytes: bytes}
		return true
	})
	for key, rec := range st.Records {
		switch rec.Tag {
		case dstruct.TagHash:
			fields, values, err := s.HGetAll([]byte(key))
			if err != nil {
				t.Fatal(err)
			}
			for i := range fields {
				rec.Fields = append(rec.Fields, string(fields[i])+"="+string(values[i]))
			}
			sort.Strings(rec.Fields)
			rec.Count, err = s.HLen([]byte(key))
			if err != nil {
				t.Fatal(err)
			}
		case dstruct.TagList:
			vals, err := s.LRange([]byte(key), 0, -1)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vals {
				rec.Fields = append(rec.Fields, string(v))
			}
			rec.Count, err = s.LLen([]byte(key))
			if err != nil {
				t.Fatal(err)
			}
		}
		st.Records[key] = rec
	}
	_, kept := st.Records["lone"]
	st.Emptied = hadLone && !kept
	return st
}

func TestAttachMatchesTwoPassWalk(t *testing.T) {
	now := wallClock()
	emptied := 0
	for k := 1; ; k++ {
		img, root, done := attachCrashImage(t, k, now)
		for _, bounded := range []bool{false, true} {
			got := attachImage(t, img, root, bounded, true)
			want := attachImage(t, img, root, bounded, false)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d bounded=%v: one-walk attach differs from two-pass:\n got  %+v\n want %+v", k, bounded, got, want)
			}
			if bounded && got.Emptied {
				emptied++
			}
			// Sanity: the keyspace is what the test built. 60 strings, 6
			// hashes and 6 lists, plus "lone" unless it was deleted, and
			// TTL hints for the 40 stamped strings and two objects. Len is
			// the persisted count word, which attach does not recount: a
			// crash between the record unlink and the decrement leaves it
			// one high.
			if n := len(got.Records); n < 72 || n > 73 || got.Len < n || got.Len > n+1 || len(got.Expiry) != 42 {
				t.Fatalf("k=%d bounded=%v: Len %d with %d records, %d expiry hints", k, bounded, got.Len, len(got.Records), len(got.Expiry))
			}
		}
		if done {
			break
		}
	}
	if emptied == 0 {
		t.Fatal("no crash point left the emptied hash for attach to delete")
	}
}
