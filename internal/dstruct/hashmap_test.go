package dstruct

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestHashMapBasic(t *testing.T) {
	h := rheap(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	m, _ := NewHashMap(a, hd, 64)
	if _, ok := m.Get([]byte("missing")); ok {
		t.Fatal("empty map found a key")
	}
	if !m.Set(hd, []byte("k1"), []byte("v1")) {
		t.Fatal("Set failed")
	}
	v, ok := m.Get([]byte("k1"))
	if !ok || string(v) != "v1" {
		t.Fatalf("Get = (%q,%v)", v, ok)
	}
	m.Set(hd, []byte("k1"), []byte("v2-longer-value"))
	if v, _ := m.Get([]byte("k1")); string(v) != "v2-longer-value" {
		t.Fatalf("updated value = %q", v)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	if !m.Delete(hd, []byte("k1")) {
		t.Fatal("Delete failed")
	}
	if m.Delete(hd, []byte("k1")) {
		t.Fatal("double Delete succeeded")
	}
}

func TestHashMapExpireStamp(t *testing.T) {
	h := rheap(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	m, _ := NewHashMap(a, hd, 64)
	if !m.SetExpire(hd, []byte("k"), []byte("v"), 500) {
		t.Fatal("SetExpire failed")
	}
	v, at, ok := m.GetExpire([]byte("k"))
	if !ok || string(v) != "v" || at != 500 {
		t.Fatalf("GetExpire = (%q,%d,%v)", v, at, ok)
	}
	// The map returns expired records verbatim — policy is the caller's.
	if _, ok := m.Get([]byte("k")); !ok {
		t.Fatal("map-level Get filtered an expired record")
	}
	// UpdateExpire refuses dead records (no resurrection) but rewrites
	// live ones in place; Set replaces and clears the stamp.
	if _, ok := m.UpdateExpire([]byte("k"), 9000, 600); ok {
		t.Fatal("UpdateExpire modified a record already past its stamp")
	}
	if prev, ok := m.UpdateExpire([]byte("k"), 9000, 400); !ok || prev != 500 {
		t.Fatalf("UpdateExpire live = (%d,%v)", prev, ok)
	}
	if _, at, _ := m.GetExpire([]byte("k")); at != 9000 {
		t.Fatalf("stamp after update = %d", at)
	}
	m.Set(hd, []byte("k"), []byte("v2"))
	if _, at, _ := m.GetExpire([]byte("k")); at != 0 {
		t.Fatalf("Set kept the old stamp: %d", at)
	}
	// DeleteExpired only fires when the stamp has actually passed.
	m.SetExpire(hd, []byte("k"), []byte("v3"), 1000)
	if m.DeleteExpired(hd, []byte("k"), 999) {
		t.Fatal("DeleteExpired removed a live record")
	}
	if m.DeleteExpired(hd, []byte("missing"), 5000) {
		t.Fatal("DeleteExpired removed a missing key")
	}
	if !m.DeleteExpired(hd, []byte("k"), 1000) {
		t.Fatal("DeleteExpired refused a dead record")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after DeleteExpired", m.Len())
	}
	// Immortal records are never sweepable.
	m.Set(hd, []byte("imm"), []byte("v"))
	if m.DeleteExpired(hd, []byte("imm"), 1<<62) {
		t.Fatal("DeleteExpired removed an immortal record")
	}
}

func TestHashMapRangeExpire(t *testing.T) {
	h := rheap(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	m, _ := NewHashMap(a, hd, 32)
	for i := 0; i < 50; i++ {
		at := uint64(0)
		if i%2 == 1 {
			at = uint64(1000 + i)
		}
		if !m.SetExpire(hd, []byte(fmt.Sprintf("k%02d", i)), []byte("v"), at) {
			t.Fatal("OOM")
		}
	}
	stamped := 0
	m.RangeExpire(func(key, _ []byte, at uint64) bool {
		if at != 0 {
			stamped++
			idx := int(key[1]-'0')*10 + int(key[2]-'0')
			if want := uint64(1000 + idx); at != want {
				t.Fatalf("key %s stamp = %d, want %d", key, at, want)
			}
		}
		return true
	})
	if stamped != 25 {
		t.Fatalf("walked %d stamped records, want 25", stamped)
	}
}

// Chain walks compare keys in place: a GetTyped hit allocates only the value
// copy, and a SetExpire replacing an existing key, a missed lookup and the
// delete/expiry walks allocate nothing. A small bucket count makes every
// walk pass several other nodes before the target.
func TestHashMapChainWalkAllocs(t *testing.T) {
	h := rheap(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	m, _ := NewHashMap(a, hd, 16)
	val := make([]byte, 100)
	for i := 0; i < 256; i++ {
		if !m.Set(hd, []byte(fmt.Sprintf("key-%04d", i)), val) {
			t.Fatal("OOM")
		}
	}
	// New nodes go to the chain head, so the first key sits deepest.
	deep, absent := []byte("key-0000"), []byte("key-9999")
	hash := []byte("hash")
	if _, _, err := m.HSet(hd, hash, [][]byte{[]byte("f0"), val, []byte("f1"), val}, 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"GetTyped hit", 1, func() { m.GetTyped(deep) }},
		{"GetTyped miss", 0, func() { m.GetTyped(absent) }},
		{"SetExpire replace", 0, func() { m.SetExpire(hd, deep, val, 0) }},
		{"UpdateExpire", 0, func() { m.UpdateExpire(deep, 0, 1) }},
		{"DeleteExpired of a live key", 0, func() { m.DeleteExpired(hd, deep, 1) }},
		{"Delete miss", 0, func() { m.Delete(hd, absent) }},
		{"HGet hit", 1, func() { m.HGet(hash, []byte("f0"), 1) }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s: %v allocs per call, want %v", c.name, got, c.want)
		}
	}
}

func TestHashMapModel(t *testing.T) {
	h := rheap(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	m, _ := NewHashMap(a, hd, 128)
	model := map[string]string{}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("key-%d", rng.Intn(300))
		switch rng.Intn(3) {
		case 0:
			val := fmt.Sprintf("val-%d", rng.Intn(100000))
			if !m.Set(hd, []byte(key), []byte(val)) {
				t.Fatal("OOM")
			}
			model[key] = val
		case 1:
			del := m.Delete(hd, []byte(key))
			_, existed := model[key]
			if del != existed {
				t.Fatalf("op %d: Delete(%s)=%v, existed=%v", i, key, del, existed)
			}
			delete(model, key)
		default:
			v, ok := m.Get([]byte(key))
			mv, existed := model[key]
			if ok != existed || (ok && string(v) != mv) {
				t.Fatalf("op %d: Get(%s)=(%q,%v), want (%q,%v)", i, key, v, ok, mv, existed)
			}
		}
	}
	if m.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(model))
	}
}

func TestHashMapQuickRoundTrip(t *testing.T) {
	h := rheap(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	m, _ := NewHashMap(a, hd, 256)
	f := func(key, val []byte) bool {
		if len(key) == 0 || len(key) > 512 || len(val) > 512 {
			return true
		}
		if !m.Set(hd, key, val) {
			return false
		}
		got, ok := m.Get(key)
		return ok && string(got) == string(val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHashMapConcurrent(t *testing.T) {
	h := rheap(t)
	a := h.AsAllocator()
	m, _ := NewHashMap(a, a.NewHandle(), 512)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hd := a.NewHandle()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 4000; i++ {
				key := []byte(fmt.Sprintf("w%d-k%d", w, rng.Intn(200)))
				switch rng.Intn(3) {
				case 0:
					if !m.Set(hd, key, []byte(fmt.Sprintf("v%d", i))) {
						t.Error("OOM")
						return
					}
				case 1:
					m.Delete(hd, key)
				default:
					m.Get(key)
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHashMapCrashRecoveryConservative(t *testing.T) {
	// The hash map links with off-holders, so it survives recovery even
	// under purely conservative tracing — no filter registered at all.
	h := rheap(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	m, hdrOff := NewHashMap(a, hd, 64)
	want := map[string]string{}
	for i := 0; i < 500; i++ {
		k, v := fmt.Sprintf("key-%04d", i), fmt.Sprintf("value-%04d", i)
		if !m.Set(hd, []byte(k), []byte(v)) {
			t.Fatal("OOM")
		}
		want[k] = v
	}
	h.SetRoot(0, hdrOff)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, nil) // conservative
	if _, err := h.Recover(); err != nil {
		t.Fatal(err)
	}
	m2 := AttachHashMap(a, hdrOff)
	for k, v := range want {
		got, ok := m2.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("key %s = (%q,%v) after recovery, want %q", k, got, ok, v)
		}
	}
	if m2.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", m2.Len(), len(want))
	}
}

func TestHashMapCrashRecoveryWithFilter(t *testing.T) {
	h := rheap(t)
	a := h.AsAllocator()
	hd := a.NewHandle()
	m, hdrOff := NewHashMap(a, hd, 64)
	for i := 0; i < 300; i++ {
		m.Set(hd, []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	// Plus leaked blocks that must be reclaimed.
	for i := 0; i < 1000; i++ {
		hd.Malloc(64)
	}
	h.SetRoot(0, hdrOff)
	if err := h.Region().Crash(); err != nil {
		t.Fatal(err)
	}
	h.GetRoot(0, HashMapFilter(h.Region()))
	stats, err := h.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// header + bucket array + 300 nodes.
	if stats.ReachableBlocks != 302 {
		t.Fatalf("reachable = %d, want 302", stats.ReachableBlocks)
	}
	m2 := AttachHashMap(a, hdrOff)
	hd2 := a.NewHandle()
	for i := 0; i < 300; i++ {
		if v, ok := m2.Get([]byte(fmt.Sprintf("k%d", i))); !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key k%d lost or wrong: (%q,%v)", i, v, ok)
		}
	}
	// Still writable.
	if !m2.Set(hd2, []byte("post"), []byte("crash")) {
		t.Fatal("Set after recovery failed")
	}
}
