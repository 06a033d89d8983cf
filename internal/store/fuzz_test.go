package store

// FuzzStoreOpen feeds Open a directory it did not write: arbitrary bucket
// and file names and contents, tmp-* debris (fresh and stale), checkpoint
// names with leading zeros, keys filed under the wrong bucket, nested
// directories and stray top-level files. The store must never panic, must
// keep its lookup accounting (Hits+Misses == Get and Has calls), must
// round-trip a valid Put, and a reopened store must list the same keys,
// less the checkpoints its own garbage collection drops. Run with
//
//	go test ./internal/store -run '^$' -fuzz FuzzStoreOpen -fuzztime 30s

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// fuzzBases are the checkpoint bases the decoded names draw from, so that
// partials, finals and their collisions actually occur.
var fuzzBases = []string{"ab12", "abx", "cd-9"}

// fuzzAlphabet mixes key characters with ones validKey rejects.
const fuzzAlphabet = "ab09.-_cdAZ+~ p"

// decodeDir writes the layout spec describes under dir and returns the
// file names it created. Each entry is a kind byte, a length byte and that
// many bytes of material, which name and fill the entry.
func decodeDir(t *testing.T, dir string, spec []byte) []string {
	t.Helper()
	var names []string
	stale := time.Now().Add(-2 * time.Hour)
	for len(spec) >= 2 {
		kind, l := spec[0], int(spec[1]%24)
		spec = spec[2:]
		if l > len(spec) {
			l = len(spec)
		}
		mat := spec[:l]
		spec = spec[l:]
		word := func() string {
			b := make([]byte, 0, len(mat))
			for _, c := range mat {
				b = append(b, fuzzAlphabet[int(c)%len(fuzzAlphabet)])
			}
			return string(b)
		}
		base := fuzzBases[int(kind>>4)%len(fuzzBases)]
		var bucket, name string
		switch kind % 7 {
		case 0: // a temp file, stale when the kind's high bit is set
			name = "tmp-" + word()
			bucket = base[:2]
		case 1: // a checkpoint name, possibly with leading zeros
			digits := "0"
			if len(mat) > 0 {
				digits = string(bytes.Repeat([]byte("0"), int(mat[0]%3))) + string(rune('1'+mat[0]%9))
			}
			name = base + partialSep + digits
			bucket = base[:2]
		case 2: // a final artifact for a base
			name = base
			bucket = base[:2]
		case 3: // a key filed under the wrong bucket
			name = base + word()
			bucket = "zz"
		case 4: // an arbitrary name
			name = word()
			if len(name) >= 2 {
				bucket = name[:2]
			} else {
				bucket = "ab"
			}
		case 5: // a directory inside a bucket
			if err := os.MkdirAll(filepath.Join(dir, base[:2], base+"-dir"), 0o755); err != nil {
				t.Fatal(err)
			}
			continue
		case 6: // a stray top-level file
			name = "x" + word()
		}
		if name == "" || name == "." || name == ".." || bucket == "." || bucket == ".." {
			continue
		}
		path := filepath.Join(dir, bucket, name)
		if bucket == "" {
			path = filepath.Join(dir, name)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			continue // a file already holds the bucket's name
		}
		if err := os.WriteFile(path, mat, 0o644); err != nil {
			continue // a directory already holds the file's name
		}
		if kind%7 == 0 && kind&0x80 != 0 {
			if err := os.Chtimes(path, stale, stale); err != nil {
				t.Fatal(err)
			}
		}
		names = append(names, name)
	}
	return names
}

// indexedKeys loads s's index and returns its keys, sorted.
func indexedKeys(t *testing.T, s *Store) []string {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.load(); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func FuzzStoreOpen(f *testing.F) {
	f.Add([]byte{1, 2, 0, 7, 2, 3, 'l', '\n', 9}, "ab12", []byte("payload"))
	f.Add([]byte{0x80, 4, 1, 2, 3, 4, 0x11, 1, 2, 0x21, 2, 1, 3}, "abx.part-1", []byte("x\n"))
	f.Add([]byte{4, 6, 0, 1, 2, 3, 4, 5, 3, 2, 7, 7, 5, 0, 6, 3, 1, 1, 1}, "zz", []byte{})
	f.Add([]byte{1, 1, 0, 1, 1, 3, 2, 2, 10, 10}, "ab12.part-07", []byte("a\nb\n"))
	f.Fuzz(func(t *testing.T, spec []byte, key string, payload []byte) {
		if len(spec) > 512 || len(key) > 64 || len(payload) > 1<<12 {
			return
		}
		dir := t.TempDir()
		names := decodeDir(t, dir, spec)
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lookups := uint64(0)
		probe := append(append([]string{key}, names...), fuzzBases...)
		for _, k := range probe {
			lookups += 2
			if _, err := s.Get(k); err != nil && !errors.Is(err, ErrNotFound) && validKey(k) {
				t.Fatalf("Get(%q): %v", k, err)
			}
			if _, err := s.Has(k); err != nil && validKey(k) {
				t.Fatalf("Has(%q): %v", k, err)
			}
		}
		if st := s.Stats(); st.Hits+st.Misses != lookups {
			t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, lookups)
		}
		for _, b := range append([]string{key}, fuzzBases...) {
			data, lines, err := s.NewestPartial(b)
			if err == nil && !validPartial(data, lines) {
				t.Fatalf("NewestPartial(%q) served %d lines as %q", b, lines, data)
			}
			if err == nil {
				if got, err := os.ReadFile(s.path(PartialKey(b, lines))); err != nil || !bytes.Equal(got, data) {
					t.Fatalf("NewestPartial(%q) = %d lines, not the file %q: %v", b, lines, PartialKey(b, lines), err)
				}
			}
			if err := s.DeletePartials(b); err == nil {
				if _, _, err := s.NewestPartial(b); !errors.Is(err, ErrNotFound) {
					t.Fatalf("NewestPartial(%q) after DeletePartials: %v", b, err)
				}
			}
		}
		if validKey(key) {
			if err := s.Put(key, payload); err != nil {
				t.Fatalf("Put(%q): %v", key, err)
			}
			if got, err := s.Get(key); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("Get(%q) after Put = %q, %v; want %q", key, got, err, payload)
			}
		}
		before := indexedKeys(t, s)
		reopened, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		after := indexedKeys(t, reopened)
		dropped := 0
		for _, k := range before {
			if i := sort.SearchStrings(after, k); i < len(after) && after[i] == k {
				continue
			}
			if _, _, ok := parsePartialKey(k); !ok {
				t.Fatalf("reopened store lost key %q", k)
			}
			dropped++
		}
		if len(after)+dropped != len(before) {
			t.Fatalf("reopened store lists %v, before %v", after, before)
		}
		if st := reopened.Stats(); st.PartialsDropped != uint64(dropped) {
			t.Fatalf("reopen dropped %d checkpoints but counted %d", dropped, st.PartialsDropped)
		}
	})
}
