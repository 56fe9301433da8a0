package main

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"sync/atomic"

	"repro/internal/ycsb"
)

// valueSize is the YCSB record size every workload writes.
const valueSize = 100

// mix64 is the splitmix64 finalizer: the benchmark's only source of
// pseudo-random bytes, so every input follows from --seed.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fillValue writes version ver of record rec into dst (valueSize bytes):
// the record and version numbers, then bytes derived from (seed, rec, ver).
// A value therefore names the write that produced it.
func fillValue(dst []byte, seed uint64, rec, ver uint32) {
	binary.LittleEndian.PutUint32(dst[0:], rec)
	binary.LittleEndian.PutUint32(dst[4:], ver)
	x := mix64(seed ^ uint64(rec)<<32 ^ uint64(ver))
	var w [8]byte
	for i := 8; i < valueSize; i += 8 {
		x = mix64(x)
		binary.LittleEndian.PutUint64(w[:], x)
		copy(dst[i:valueSize], w[:])
	}
}

// decodeValue checks that v is a whole value written for record rec and
// returns its version.
func decodeValue(v []byte, seed uint64, rec uint32) (ver uint32, ok bool) {
	if len(v) != valueSize || binary.LittleEndian.Uint32(v) != rec {
		return 0, false
	}
	ver = binary.LittleEndian.Uint32(v[4:])
	var want [valueSize]byte
	fillValue(want[:], seed, rec, ver)
	return ver, bytes.Equal(v, want[:])
}

// keyspace is the generated record set: keys, and the last version written
// to each record. Every record has exactly one writer (client or worker
// rec % writers), so a writer knows the exact value each of its keys holds.
type keyspace struct {
	seed uint64
	keys [][]byte
	vers []atomic.Uint32
}

func newKeyspace(seed int64, records int) *keyspace {
	ks := &keyspace{seed: mix64(uint64(seed)), keys: make([][]byte, records), vers: make([]atomic.Uint32, records)}
	for i := range ks.keys {
		ks.keys[i] = []byte(ycsb.KeyAt(i))
	}
	return ks
}

// checkGet reports whether a GET of rec that returned v (found=false for a
// missing key) is correct. exact is the version the reader knows the key
// holds (the reader is the key's writer, or writers are stopped); otherwise
// any complete version up to the last one sent is acceptable.
func (ks *keyspace) checkGet(rec uint32, v []byte, found bool, exact bool, want uint32) bool {
	if !found {
		return false
	}
	ver, ok := decodeValue(v, ks.seed, rec)
	if !ok {
		return false
	}
	if exact {
		return ver == want
	}
	return ver <= ks.vers[rec].Load()
}

// verifyStore checks every record of st against its last written version
// and returns the number checked and the number wrong or missing.
func (ks *keyspace) verifyStore(get func(key []byte) ([]byte, bool, error), n func() int) (attempted, failed int64) {
	for rec := range ks.keys {
		v, ok, err := get(ks.keys[rec])
		attempted++
		if err != nil || !ks.checkGet(uint32(rec), v, ok, true, ks.vers[rec].Load()) {
			failed++
		}
	}
	attempted++
	if n() != len(ks.keys) {
		failed++
	}
	return attempted, failed
}

// op is one generated operation: record<<1, plus 1 for an update.
type op uint32

func (o op) rec() uint32  { return uint32(o >> 1) }
func (o op) update() bool { return o&1 != 0 }
func makeOp(rec int, upd bool) op {
	if upd {
		return op(rec<<1 | 1)
	}
	return op(rec << 1)
}

// genOps returns writer w's operation stream: n seeded zipfian YCSB
// operations. An update is moved to the nearest record w owns (rec %
// writers == w), which keeps the skew and gives every record one writer.
func genOps(seed int64, w, writers, records int, readFrac float64, n int) []op {
	g := ycsb.NewGenerator(ycsb.Workload{Name: "bench", Records: records, ReadFrac: readFrac, ValueSize: valueSize},
		int64(mix64(uint64(seed)*0x100000001B3+uint64(w)+1)>>1))
	ops := make([]op, n)
	for i := range ops {
		o := g.Next()
		rec, err := strconv.Atoi(o.Key[len("user"):])
		if err != nil {
			panic("benchmark: unexpected YCSB key " + o.Key)
		}
		if o.Kind == ycsb.Update {
			ops[i] = makeOp(rec-rec%writers+w, true)
		} else {
			ops[i] = makeOp(rec, false)
		}
	}
	return ops
}
