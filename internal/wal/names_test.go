package wal

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// fnvCollisions are pairs of keys with one 32-bit FNV-1a hash, so the
// table must tell them apart by the compare alone.
var fnvCollisions = [][2]string{
	{"costarring", "liquid"}, {"declinate", "macallums"},
	{"altarage", "zinke"}, {"altarages", "zinkes"},
}

// checkNames interns keys in order into a fresh table and checks it
// against a map model: a key met before gets its first index back, a
// new one the next index, and each entry holds its key. At the end
// every key is looked up once more, after all the growth.
func checkNames(t *testing.T, keys [][]byte) {
	t.Helper()
	var n streamNames
	model := map[string]int{}
	for _, k := range keys {
		want, ok := model[string(k)]
		if !ok {
			want = len(model)
			model[string(k)] = want
		}
		if got := n.of(k); got != want {
			t.Fatalf("of(%q) = %d, the map says %d", k, got, want)
		}
	}
	if len(n.ents) != len(model) {
		t.Fatalf("%d entries for %d distinct keys", len(n.ents), len(model))
	}
	for k, i := range model {
		if n.ents[i].name != k || n.ents[i].hash != fnv1a([]byte(k)) {
			t.Fatalf("entry %d holds %q (hash %x), want %q", i, n.ents[i].name, n.ents[i].hash, k)
		}
		if got := n.of([]byte(k)); got != i {
			t.Fatalf("after growth of(%q) = %d, want %d", k, got, i)
		}
	}
	if len(n.ents) != len(model) {
		t.Fatal("a lookup of a known key interned it again")
	}
	if len(model) > 0 && 2*len(n.ents) > len(n.slots) {
		t.Fatalf("%d entries in %d slots: more than half full", len(n.ents), len(n.slots))
	}
}

// FuzzStreamNames is a map-model differential for the intern table.
// The input is read as a key sequence: each byte below 8 picks one of
// the colliding keys, another byte below 0xff a short stream key, and
// the bytes after a 0xff up to the next one are one arbitrary key. The
// seeds cover colliding hashes, the empty key, and thousands of random
// keys, far past the first table size.
func FuzzStreamNames(f *testing.F) {
	for _, p := range fnvCollisions {
		if fnv1a([]byte(p[0])) != fnv1a([]byte(p[1])) {
			f.Fatalf("%q and %q no longer collide", p[0], p[1])
		}
	}
	rng := rand.New(rand.NewSource(1))
	var random []byte
	for i := 0; i < 5000; i++ {
		if i%50 == 0 {
			random = append(random, byte(rng.Intn(8)))
			continue
		}
		random = append(random, 0xff)
		for n := rng.Intn(6); n > 0; n-- {
			random = append(random, byte(rng.Intn(0xff)))
		}
	}
	f.Add(append(random, 0xff))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0xff, 0xff, 'a', 'b', 0xff, 0xff, 0xff, 'a', 'b', 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var keys [][]byte
		for i := 0; i < len(data); i++ {
			c := data[i]
			switch {
			case c == 0xff:
				j := i + 1
				for j < len(data) && data[j] != 0xff {
					j++
				}
				keys = append(keys, data[i+1:j])
				i = j
			case c < 8:
				keys = append(keys, []byte(fnvCollisions[c/2][c%2]))
			default:
				keys = append(keys, []byte(fmt.Sprintf("s%d/%d", c%97, c%3)))
			}
		}
		checkNames(t, keys)
	})
}

// TestScanAndReplayShareStreamStrings: Open's scan hands OnRecover one
// Stream string per stream, the same bytes for every record of it, and
// so does one Replay.
func TestScanAndReplayShareStreamStrings(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncOff, SegmentBytes: 4 << 10})
	streams := append([]string{"a/1", "b%2Fc/2"}, fnvCollisions[0][0], fnvCollisions[0][1])
	for i := int64(0); i < 200; i++ {
		if _, err := l.Append(streams[i%int64(len(streams))], i, make([]byte, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	shared := func(how string) func(r *Record) error {
		seen := map[string]*byte{}
		return func(r *Record) error {
			p := unsafe.StringData(r.Stream)
			if q, ok := seen[r.Stream]; ok && q != p {
				t.Fatalf("%s: record %d of %q carries a second copy of its key", how, r.LSN, r.Stream)
			}
			seen[r.Stream] = p
			return nil
		}
	}
	l, rec := openT(t, dir, Options{Policy: SyncOff, SegmentBytes: 4 << 10, OnRecover: shared("scan")})
	defer l.Close()
	if rec.Segments < 2 || rec.Records != 200 {
		t.Fatalf("recovery %+v, want 200 records over several segments", rec)
	}
	replay := shared("replay")
	if err := l.Replay(func(r Record) error { return replay(&r) }); err != nil {
		t.Fatal(err)
	}
}
