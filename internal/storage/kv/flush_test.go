package kv

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// flushLayoutGolden is the hash flushLayoutHash computed for a cache size
// (see TestFlushLayoutGolden). A flush that changes page layout, encoded
// bytes, disk or flush counters, or the block-cache access sequence
// changes it.
var flushLayoutGolden = map[int64]string{
	0:        "10a61b73db4202445a4dbe9f8da14eafb9be634f943b4573e0f521f3f2cbef68",
	64 << 10: "2e775a806fd80736c5e42ffc7e74802ece53b94cff36eddb12a810dc44f5b744",
	8 << 20:  "8fdc0c71b5ccf935382decb981d81e824ac84e3e05222a640249befd40fe7b77",
}

// flushLayoutHash drives a seeded mix of puts (some larger than a page),
// overwrites and deletes through a 256 KiB memtable, flushes, and hashes
// every page's id, first key and encoded bytes together with Stats and
// CacheStats. The modeled penalties are set near zero: they are priced,
// not stored, and the test hashes only what is stored.
func flushLayoutHash(cacheBytes int64) string {
	s := NewStore(Config{
		PageBytes:               4 << 10,
		MemtableBytes:           256 << 10,
		CacheBytes:              cacheBytes,
		DiskPenaltyPerOp:        1,
		DiskPenaltyPerByte:      1e-9,
		DiskWritePenaltyPerByte: 1e-9,
	})
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 6000; i++ {
		key := []byte(fmt.Sprintf("key%05d", rng.Intn(1500)))
		switch r := rng.Intn(100); {
		case r < 12:
			s.Delete(key)
		case r < 16:
			s.Put(key, make([]byte, 4<<10+rng.Intn(8<<10))) // larger than a page
		default:
			val := make([]byte, 1+rng.Intn(600))
			rng.Read(val)
			s.Put(key, val)
		}
	}
	s.Flush()

	h := sha256.New()
	var buf []byte
	for _, p := range s.pages {
		buf = binary.AppendUvarint(buf[:0], p.id)
		buf = binary.AppendUvarint(buf, uint64(len(p.firstKey)))
		buf = append(buf, p.firstKey...)
		buf = binary.AppendUvarint(buf, uint64(len(p.encoded)))
		h.Write(buf)
		h.Write(p.encoded)
	}
	fmt.Fprintf(h, "%+v %+v", s.Stats(), s.CacheStats())
	return hex.EncodeToString(h.Sum(nil))
}

// TestFlushLayoutGolden pins the page store a flush leaves behind, byte
// for byte, at a cache too small to hold a page, one that holds some and
// one that holds all.
func TestFlushLayoutGolden(t *testing.T) {
	for _, cacheBytes := range []int64{0, 64 << 10, 8 << 20} {
		if got, want := flushLayoutHash(cacheBytes), flushLayoutGolden[cacheBytes]; got != want {
			t.Errorf("cache %d B: flush layout hash %s, want %s", cacheBytes, got, want)
		}
	}
}

// BenchmarkFlush times one flush of 4,000 × 1 KiB values into an empty
// store whose block cache holds every page. The modeled penalties are set
// near zero so the figure is the engine's own flush work.
func BenchmarkFlush(b *testing.B) {
	keys := make([][]byte, 4000)
	val := make([]byte, 1<<10)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%06d", i*7919%4000))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewStore(Config{
			CacheBytes:              8 << 20,
			MemtableBytes:           8 << 20,
			DiskPenaltyPerOp:        1,
			DiskPenaltyPerByte:      1e-9,
			DiskWritePenaltyPerByte: 1e-9,
		})
		for _, k := range keys {
			s.Put(k, val)
		}
		b.StartTimer()
		s.Flush()
	}
}
