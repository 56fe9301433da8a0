// Fixtures for the atomicword analyzer.
package atomicmix

import "fixture/pmem"

// mix accesses the same word atomically and through raw bytes: the two
// views are not atomic with respect to each other.
func mix(r *pmem.Region, off uint64) {
	r.Store(off+8, 1)
	var b [8]byte
	r.ReadBytes(off+8, b[:]) // want "word off\+8 is accessed non-atomically via ReadBytes"
}

// compareMix compares bytes in place at a word that is also stored
// atomically: the same mix as ReadBytes.
func compareMix(r *pmem.Region, off uint64, key []byte) bool {
	r.Store(off+24, 1)
	return r.EqualBytes(off+24, key) // want "word off\+24 is accessed non-atomically via EqualBytes"
}

// rmw is the PR 2 lost-update shape: Store of a value derived from Load of
// the same word on the same Region.
func rmw(r *pmem.Region, off uint64) {
	r.Store(off+64, r.Load(off+64)+1) // want "non-atomic read-modify-write of word off\+64"
}

// copyBetween copies one word between two different Regions: same offset
// text, different receivers — not an RMW and not a mix.
func copyBetween(dst, src *pmem.Region, off uint64) {
	dst.Store(off+128, src.Load(off+128))
}

// disjoint uses atomic and raw accessors on different words: fine.
func disjoint(r *pmem.Region, off uint64) {
	r.Store(off+192, 1)
	r.WriteBytes(off+256, []byte("payload"))
}

// counter uses the atomic RMW the analyzer points at: fine.
func counter(r *pmem.Region, off uint64) {
	r.Add(off+320, 1)
}
