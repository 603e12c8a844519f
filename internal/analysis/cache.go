package analysis

// The fact cache holds one entry per module state: the run's final,
// sorted findings (staleallow included), keyed by a content hash of
// everything that can influence them:
//
//   - the cache format version and the analyzer set,
//   - the typestate protocol-spec fingerprint,
//   - every loaded package's path, directory and source bytes.
//
// A hit returns the stored findings as they are and never type-checks;
// any miss re-runs everything. Finer keys buy nothing here: a miss must
// type-check the whole module and build the module view anyway, and
// those two steps are most of a cold run.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// cacheVersion invalidates every entry when the analyzer semantics or
// the entry format change. v2: global-analyzer entries and LRU eviction.
// v3: typestate protocol findings (with traces) in the entries, and the
// protocol-spec fingerprint in the key. v4: one whole-module entry per
// tree state, holding the run's final findings.
const cacheVersion = "easyio-vet-v4"

// defaultCacheEntries bounds the cache directory: every distinct tree
// state adds an entry, so without a cap the directory grows forever.
// ~500 entries is months of active editing yet only a few MB.
const defaultCacheEntries = 512

// Cache is a directory of per-key JSON entries with LRU eviction: get
// refreshes an entry's mtime, put prunes the oldest entries beyond
// maxEntries.
type Cache struct {
	dir        string
	maxEntries int
}

// OpenCache returns a cache rooted at dir (created lazily on first put).
func OpenCache(dir string) *Cache { return &Cache{dir: dir, maxEntries: defaultCacheEntries} }

type cacheEntry struct {
	Version  string       `json:"version"`
	Findings []Diagnostic `json:"findings"`
}

func (c *Cache) get(key string) (cacheEntry, bool) {
	if key == "" {
		return cacheEntry{}, false
	}
	b, err := os.ReadFile(filepath.Join(c.dir, key+".json"))
	if err != nil {
		return cacheEntry{}, false
	}
	var ent cacheEntry
	if json.Unmarshal(b, &ent) != nil || ent.Version != cacheVersion {
		return cacheEntry{}, false
	}
	// LRU touch: a hit is a use; eviction order follows mtime.
	now := time.Now()
	_ = os.Chtimes(filepath.Join(c.dir, key+".json"), now, now)
	return ent, true
}

func (c *Cache) put(key string, ent cacheEntry) {
	if key == "" {
		return
	}
	ent.Version = cacheVersion
	b, err := json.Marshal(ent)
	if err != nil {
		return
	}
	if os.MkdirAll(c.dir, 0o755) != nil {
		return
	}
	// Write-then-rename keeps concurrent runs from seeing torn entries.
	tmp := filepath.Join(c.dir, key+".tmp")
	if os.WriteFile(tmp, b, 0o644) != nil {
		return
	}
	_ = os.Rename(tmp, filepath.Join(c.dir, key+".json"))
	c.prune()
}

// prune removes the least-recently-used entries beyond maxEntries
// (oldest mtime first, name as the deterministic tiebreaker).
func (c *Cache) prune() {
	dirents, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type entry struct {
		name string
		mt   time.Time
	}
	var list []entry
	for _, e := range dirents {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		list = append(list, entry{e.Name(), fi.ModTime()})
	}
	if len(list) <= c.maxEntries {
		return
	}
	sort.Slice(list, func(i, j int) bool {
		if !list[i].mt.Equal(list[j].mt) {
			return list[i].mt.Before(list[j].mt)
		}
		return list[i].name < list[j].name
	})
	for _, e := range list[:len(list)-c.maxEntries] {
		_ = os.Remove(filepath.Join(c.dir, e.name))
	}
}

// cacheKey hashes the analyzer set, the protocol specs and every
// package's path, directory and source bytes, in path order. It returns
// "" (run uncached) when a source file cannot be re-read, as for
// synthetic test fixtures.
func cacheKey(pkgs []*Package, analyzers []*Analyzer) string {
	var names []string
	for _, a := range analyzers {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	// The protocol-spec fingerprint makes the typestate specs part of the
	// key even when internal/analysis itself is not among the packages:
	// editing a state, transition or matcher invalidates every entry.
	h := sha256.New()
	io.WriteString(h, cacheVersion+"\x00"+strings.Join(names, ",")+"\x00"+TypestateFingerprint()+"\x00")
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	for _, pkg := range sorted {
		io.WriteString(h, pkg.Path+"\x00"+pkg.Dir+"\x00"+itoa(len(pkg.Files))+"\x00")
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			b, err := os.ReadFile(name)
			if err != nil {
				return ""
			}
			io.WriteString(h, filepath.Base(name)+"\x00")
			h.Write(b)
			io.WriteString(h, "\x00")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
