// Package pmem simulates byte-addressable persistent memory (NVM) with
// x86-style cache-line write-back semantics.
//
// A Region models a DAX-mapped persistent segment. It keeps two images:
//
//   - the volatile image ("CPU caches + mapped view"): every Load/Store/CAS
//     operates on it;
//   - the shadow image ("NVM media"): only data explicitly written back with
//     Flush (clwb) — or evicted by the simulated cache — reaches it.
//
// A full-system crash (Crash) discards the volatile image and resurrects the
// region from the shadow, so any store that was not flushed (or luckily
// evicted) is lost, at 64-byte cache-line granularity. Lines are never torn.
//
// This is the substitution for the Optane DIMMs + EXT4-DAX setup used in the
// paper: what the experiments measure is how often each allocator flushes,
// fences and synchronizes, and whether recovery reconstructs exactly the
// reachable blocks — properties of the algorithms, not of the DIMM. See
// DESIGN.md ("Substitutions").
//
// Two modes are provided. ModeFast keeps only the volatile image and counts
// flushes/fences (optionally charging a configurable latency for each), for
// performance experiments. ModeCrashSim additionally maintains the shadow
// image and dirty-line tracking, for crash-injection and recovery testing.
//
// The shadow is allocated lazily, one 64 KB chunk at a time, on the first
// write-back of a line in the chunk. A chunk no line was ever written back to
// stays unallocated and reads as zeros, which is what a fresh region's media
// holds, so a large region whose program persists little costs little memory
// beyond its volatile image.
package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// LineBytes is the simulated cache-line size: write-back granularity.
	LineBytes = 64
	// WordBytes is the machine word size; all Load/Store/CAS offsets must
	// be WordBytes-aligned.
	WordBytes = 8
	// LineWords is the number of words per cache line.
	LineWords = LineBytes / WordBytes

	// chunkWords is the size of one lazily allocated shadow chunk (64 KB).
	chunkWords = 1 << 13
	chunkLines = chunkWords / LineWords
)

// shadowChunk is one 64 KB piece of the persistent image.
type shadowChunk [chunkWords]uint64

// zeroChunk is what an unallocated shadow chunk holds. It is never written.
var zeroChunk shadowChunk

// Mode selects how much machinery a Region carries.
type Mode int

const (
	// ModeFast tracks statistics only; crashes are not supported.
	ModeFast Mode = iota
	// ModeCrashSim maintains a shadow (persistent) image and per-line
	// dirty flags so that Crash and write-back semantics can be simulated.
	ModeCrashSim
)

func (m Mode) String() string {
	switch m {
	case ModeFast:
		return "fast"
	case ModeCrashSim:
		return "crashsim"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config controls a Region's simulation fidelity and cost model.
type Config struct {
	// Mode selects fast (stats-only) or crash-simulation operation.
	Mode Mode
	// FlushLatency, if non-zero, is busy-waited for every line flushed by
	// Flush or FlushRange, dirty or clean, modeling the cost of clwb to
	// Optane media.
	FlushLatency time.Duration
	// FenceLatency, if non-zero, is busy-waited on every Fence (sfence).
	FenceLatency time.Duration
	// EvictProb is used by Crash: each dirty line survives the crash with
	// this probability, modeling spontaneous cache eviction having written
	// it back before the power failed. 0 = strict (only flushed data
	// survives); 1 = everything survives (as if write-through).
	EvictProb float64
	// Seed seeds the eviction lottery; 0 means a fixed default so crash
	// tests are reproducible.
	Seed int64
	// StoreHook, if non-nil, is invoked after every Store/CAS. Tests use
	// it to inject crashes at precise points inside multi-step operations
	// (typically by panicking with a sentinel that the test recovers).
	StoreHook func()
	// SnapshotHook, if non-nil, is invoked at each phase boundary of an
	// online snapshot (SaveFileOnline). Crash-injection tests use it the
	// way StoreHook is used for stores: panic with a sentinel to simulate
	// the process dying mid-copy, mid-delta, mid-fence, or mid-rename, and
	// then assert that the previous image is still the one that loads.
	SnapshotHook func(phase SnapshotPhase)
}

// Stats counts the persistence-relevant events on a Region. All counters are
// cumulative since the Region was created. Loads are not counted: a shared
// counter bumped on every read is a locked read-modify-write on one cache
// line, which serializes the independent loads that recovery's batched walks
// rely on to overlap their cache misses (DESIGN.md, "Recovery memory-level
// parallelism").
type Stats struct {
	Stores    uint64 // atomic word stores
	CASes     uint64 // compare-and-swap attempts
	Flushes   uint64 // line flushes requested
	Fences    uint64 // store fences
	LinesBack uint64 // dirty lines actually written back (crash-sim mode)
}

// Region is a simulated persistent memory segment. The zero value is not
// usable; create Regions with NewRegion.
//
// Word accessors (Load, Store, CAS) are safe for concurrent use. Byte
// accessors (ReadBytes, WriteBytes, Zero) are not atomic with respect to
// concurrent word operations on the same words; callers must not mix them on
// contended locations.
type Region struct {
	words []uint64 // volatile image
	// shadow is the persistent image (ModeCrashSim only), one lazily
	// allocated chunk per chunkWords words; a nil chunk holds zeros.
	shadow []atomic.Pointer[shadowChunk]
	dirty  []uint32 // per-line dirty flags (ModeCrashSim only)
	size   uint64   // bytes
	cfg    Config

	stats struct {
		stores, cases, flushes, fences, linesBack atomic.Uint64
	}

	crashMu sync.Mutex // serializes Crash/Persist against each other
	rng     *rand.Rand

	// snap is the online-snapshot write barrier: non-nil only while a
	// SaveFileOnline pass is running. Mutators mark the lines they touch
	// *after* the word store (see snapshot.go for the ordering argument);
	// the snapshot pass re-copies marked lines until the cut-over fence.
	snap   atomic.Pointer[snapTracker]
	snapMu sync.Mutex // one online snapshot at a time

	// replID/replOff are the replication metadata pair stamped into the
	// image header by Save/SaveFileOnline and restored by LoadRegion. They
	// are volatile bookkeeping, not region data: the replication layer sets
	// them as the write feed advances, and a checkpoint image records the
	// feed position its contents correspond to.
	replID  atomic.Uint64
	replOff atomic.Uint64
}

// SetReplMeta records the replication stream ID and byte offset that the
// region's current contents correspond to. The next checkpoint image stamps
// the pair into its header (for SaveFileOnline, re-stamped under the
// cut-over fence, when the value is final for the captured state).
func (r *Region) SetReplMeta(id, off uint64) {
	r.replID.Store(id)
	r.replOff.Store(off)
}

// ReplMeta returns the replication metadata pair last set by SetReplMeta
// (or restored from the loaded image's header).
func (r *Region) ReplMeta() (id, off uint64) {
	return r.replID.Load(), r.replOff.Load()
}

// NewRegion creates a Region of the given size in bytes (rounded up to a
// whole number of cache lines). The region starts zeroed, and — in crash-sim
// mode — fully persistent (the shadow is also zero).
func NewRegion(size uint64, cfg Config) *Region {
	if size == 0 {
		panic("pmem: zero-sized region")
	}
	lines := (size + LineBytes - 1) / LineBytes
	size = lines * LineBytes
	r := &Region{
		words: make([]uint64, size/WordBytes),
		size:  size,
		cfg:   cfg,
	}
	if cfg.Mode == ModeCrashSim {
		r.shadow = make([]atomic.Pointer[shadowChunk], (size/WordBytes+chunkWords-1)/chunkWords)
		r.dirty = make([]uint32, lines)
		seed := cfg.Seed
		if seed == 0 {
			seed = 0x5851F42D4C957F2D
		}
		r.rng = rand.New(rand.NewSource(seed))
	}
	return r
}

// Size returns the region size in bytes.
func (r *Region) Size() uint64 { return r.size }

// Mode returns the region's simulation mode.
func (r *Region) Mode() Mode { return r.cfg.Mode }

// Config returns the configuration the region was created with.
func (r *Region) Config() Config { return r.cfg }

func (r *Region) checkWord(off uint64) uint64 {
	if off%WordBytes != 0 {
		panic(fmt.Sprintf("pmem: misaligned word access at offset %#x", off))
	}
	if off >= r.size {
		panic(fmt.Sprintf("pmem: out-of-range access at offset %#x (size %#x)", off, r.size))
	}
	return off / WordBytes
}

// Load atomically reads the word at byte offset off.
func (r *Region) Load(off uint64) uint64 {
	i := r.checkWord(off)
	return atomic.LoadUint64(&r.words[i])
}

// markDirty marks the line containing off dirty. It must be called after the
// word store it covers: writeBackLine clears the flag before copying the
// line, so a store followed by its mark is either in the copy or leaves the
// line dirty for the next write-back. Marking first would let a concurrent
// write-back clear the mark, copy the old word, and leave the new word
// unflushable until the line is stored to again.
func (r *Region) markDirty(off uint64) {
	if r.dirty != nil {
		atomic.StoreUint32(&r.dirty[off/LineBytes], 1)
	}
}

// Store atomically writes v to the word at byte offset off and marks the
// containing cache line dirty.
func (r *Region) Store(off, v uint64) {
	i := r.checkWord(off)
	r.stats.stores.Add(1)
	atomic.StoreUint64(&r.words[i], v)
	r.markDirty(off)
	r.snapMark(off)
	if r.cfg.StoreHook != nil {
		r.cfg.StoreHook()
	}
}

// CAS atomically compares-and-swaps the word at byte offset off. The line is
// marked dirty whether or not the swap succeeds (matching real hardware,
// where the line enters the cache in modified state only on success; marking
// unconditionally is conservative for crash simulation).
func (r *Region) CAS(off, old, new uint64) bool {
	i := r.checkWord(off)
	r.stats.cases.Add(1)
	ok := atomic.CompareAndSwapUint64(&r.words[i], old, new)
	r.markDirty(off)
	r.snapMark(off)
	if r.cfg.StoreHook != nil {
		r.cfg.StoreHook()
	}
	return ok
}

// Add atomically adds delta to the word at byte offset off and returns the
// new value.
func (r *Region) Add(off, delta uint64) uint64 {
	i := r.checkWord(off)
	r.stats.cases.Add(1)
	v := atomic.AddUint64(&r.words[i], delta)
	r.markDirty(off)
	r.snapMark(off)
	if r.cfg.StoreHook != nil {
		r.cfg.StoreHook()
	}
	return v
}

func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}

// Flush writes back the cache line containing byte offset off (clwb). In
// fast mode this only counts (and charges FlushLatency); in crash-sim mode
// the line's words are copied to the shadow image.
func (r *Region) Flush(off uint64) {
	if off >= r.size {
		panic(fmt.Sprintf("pmem: flush out of range at %#x", off))
	}
	r.stats.flushes.Add(1)
	if r.shadow != nil {
		r.writeBackLine(off / LineBytes)
	}
	spin(r.cfg.FlushLatency)
}

// FlushRange flushes every cache line overlapping [off, off+n).
func (r *Region) FlushRange(off, n uint64) {
	if n == 0 {
		return
	}
	if off+n > r.size {
		panic(fmt.Sprintf("pmem: flush range out of bounds [%#x,%#x)", off, off+n))
	}
	first := off / LineBytes
	last := (off + n - 1) / LineBytes
	for l := first; l <= last; l++ {
		r.stats.flushes.Add(1)
		if r.shadow != nil {
			r.writeBackLine(l)
		}
		spin(r.cfg.FlushLatency)
	}
}

// writeBackLine copies line l from the volatile image to the shadow and
// clears its dirty flag.
func (r *Region) writeBackLine(l uint64) {
	if atomic.LoadUint32(&r.dirty[l]) == 0 {
		return
	}
	atomic.StoreUint32(&r.dirty[l], 0)
	c := r.shadow[l/chunkLines].Load()
	if c == nil {
		c = r.installChunk(l / chunkLines)
	}
	dst := c[(l%chunkLines)*LineWords:][:LineWords]
	src := r.words[l*LineWords:][:LineWords]
	for i := range dst {
		atomic.StoreUint64(&dst[i], atomic.LoadUint64(&src[i]))
	}
	r.stats.linesBack.Add(1)
}

// installChunk installs a zeroed shadow chunk ci, unless a concurrent
// write-back got there first, and returns the installed one.
func (r *Region) installChunk(ci uint64) *shadowChunk {
	if c := new(shadowChunk); r.shadow[ci].CompareAndSwap(nil, c) {
		return c
	}
	return r.shadow[ci].Load()
}

// chunkSpan returns the volatile-image word range [lo, hi) shadow chunk ci
// covers; the last chunk may be partial.
func (r *Region) chunkSpan(ci int) (lo, hi int) {
	lo = ci * chunkWords
	return lo, min(lo+chunkWords, len(r.words))
}

// Fence issues a store fence (sfence). Because simulated flushes complete
// synchronously, Fence only counts (and charges FenceLatency); it is still
// essential that callers place fences correctly, since crash-injection tests
// verify recoverability under the strictest interpretation (nothing persists
// without an explicit Flush).
func (r *Region) Fence() {
	r.stats.fences.Add(1)
	spin(r.cfg.FenceLatency)
}

// Persist flushes every dirty line, modeling the write-back that happens on
// a clean shutdown. In fast mode it is a no-op apart from statistics.
func (r *Region) Persist() {
	r.crashMu.Lock()
	defer r.crashMu.Unlock()
	if r.shadow == nil {
		return
	}
	for l := range r.dirty {
		r.writeBackLine(uint64(l))
	}
}

// ErrFastMode is returned by Crash on a ModeFast region.
var ErrFastMode = errors.New("pmem: crash simulation requires ModeCrashSim")

// Crash simulates a full-system, fail-stop crash. Each dirty line survives
// with probability EvictProb (it happened to be evicted and written back
// before the failure); all other unflushed lines are lost. The volatile
// image is then reloaded from the shadow, as if the segment had been
// re-mapped after reboot. Concurrent accessors must have stopped: a real
// crash has no surviving threads either.
func (r *Region) Crash() error {
	if r.cfg.Mode != ModeCrashSim {
		return ErrFastMode
	}
	r.crashMu.Lock()
	defer r.crashMu.Unlock()
	for l := range r.dirty {
		if atomic.LoadUint32(&r.dirty[uint64(l)]) != 0 &&
			r.cfg.EvictProb > 0 && r.rng.Float64() < r.cfg.EvictProb {
			r.writeBackLine(uint64(l))
		}
	}
	for ci := range r.shadow {
		lo, hi := r.chunkSpan(ci)
		if c := r.shadow[ci].Load(); c != nil {
			copy(r.words[lo:hi], c[:hi-lo])
		} else {
			clear(r.words[lo:hi])
		}
	}
	clear(r.dirty)
	return nil
}

// DirtyLines reports how many cache lines are currently dirty (crash-sim
// mode only; 0 otherwise). Useful in tests asserting that a clean shutdown
// flushed everything.
func (r *Region) DirtyLines() int {
	n := 0
	for l := range r.dirty {
		if atomic.LoadUint32(&r.dirty[l]) != 0 {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the region's event counters.
func (r *Region) Stats() Stats {
	return Stats{
		Stores:    r.stats.stores.Load(),
		CASes:     r.stats.cases.Load(),
		Flushes:   r.stats.flushes.Load(),
		Fences:    r.stats.fences.Load(),
		LinesBack: r.stats.linesBack.Load(),
	}
}

// ReadBytes copies n = len(b) bytes starting at byte offset off into b, a
// word at a time where off is word-aligned. It is not atomic with respect to
// concurrent word writes.
func (r *Region) ReadBytes(off uint64, b []byte) {
	if off+uint64(len(b)) > r.size {
		panic(fmt.Sprintf("pmem: ReadBytes out of bounds [%#x,%#x)", off, off+uint64(len(b))))
	}
	for i := 0; i < len(b); {
		o := off + uint64(i)
		w := r.words[o/WordBytes]
		if o%WordBytes == 0 && len(b)-i >= WordBytes {
			binary.LittleEndian.PutUint64(b[i:], w)
			i += WordBytes
			continue
		}
		b[i] = byte(w >> ((o % WordBytes) * 8))
		i++
	}
}

// EqualBytes reports whether the len(b) bytes starting at byte offset off
// equal b. It compares in place, a word at a time where off is word-aligned,
// so lookups match keys without copying them out. Like ReadBytes it is not
// atomic with respect to concurrent word writes.
func (r *Region) EqualBytes(off uint64, b []byte) bool {
	if off+uint64(len(b)) > r.size {
		panic(fmt.Sprintf("pmem: EqualBytes out of bounds [%#x,%#x)", off, off+uint64(len(b))))
	}
	for i := 0; i < len(b); {
		o := off + uint64(i)
		w := r.words[o/WordBytes]
		if o%WordBytes == 0 && len(b)-i >= WordBytes {
			if w != binary.LittleEndian.Uint64(b[i:]) {
				return false
			}
			i += WordBytes
			continue
		}
		if byte(w>>((o%WordBytes)*8)) != b[i] {
			return false
		}
		i++
	}
	return true
}

// WriteBytes copies b into the region starting at byte offset off, marking
// the touched lines dirty. It is not atomic with respect to concurrent word
// writes; callers use it only on uncontended payload memory.
func (r *Region) WriteBytes(off uint64, b []byte) {
	if off+uint64(len(b)) > r.size {
		panic(fmt.Sprintf("pmem: WriteBytes out of bounds [%#x,%#x)", off, off+uint64(len(b))))
	}
	for i := 0; i < len(b); {
		o := off + uint64(i)
		wi := o / WordBytes
		shift := (o % WordBytes) * 8
		// Fast path: aligned full word.
		if shift == 0 && len(b)-i >= WordBytes {
			v := uint64(b[i]) | uint64(b[i+1])<<8 | uint64(b[i+2])<<16 | uint64(b[i+3])<<24 |
				uint64(b[i+4])<<32 | uint64(b[i+5])<<40 | uint64(b[i+6])<<48 | uint64(b[i+7])<<56
			atomic.StoreUint64(&r.words[wi], v)
			r.markDirty(o)
			i += WordBytes
			continue
		}
		w := atomic.LoadUint64(&r.words[wi])
		w = (w &^ (0xFF << shift)) | uint64(b[i])<<shift
		atomic.StoreUint64(&r.words[wi], w)
		r.markDirty(o)
		i++
	}
	r.snapMarkRange(off, uint64(len(b)))
}

// Zero clears n bytes starting at off (both must be word-aligned), marking
// the touched lines dirty.
func (r *Region) Zero(off, n uint64) {
	if off%WordBytes != 0 || n%WordBytes != 0 {
		panic("pmem: Zero requires word alignment")
	}
	if off+n > r.size {
		panic(fmt.Sprintf("pmem: Zero out of bounds [%#x,%#x)", off, off+n))
	}
	for o := off; o < off+n; o += WordBytes {
		atomic.StoreUint64(&r.words[o/WordBytes], 0)
		r.markDirty(o)
	}
	r.snapMarkRange(off, n)
}
