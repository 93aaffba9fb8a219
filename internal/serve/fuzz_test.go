package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"spatial/api"
)

// FuzzDiskLoad writes arbitrary bytes as one persisted cache entry and
// starts an engine on the directory. The loader must never panic, and
// the entry must end in exactly one state:
//
//   - loaded: still in place, counted in DiskLoaded, cached under the
//     key its content hashes to, which is also its filename;
//   - quarantined: moved under quarantine/ and counted;
//   - deleted: a stale wire version, or a program the compiler rejects.
//
// keyhex names the file; anything but 64 lowercase hex digits is
// hashed into a valid name. selfKey names the file by the content's own
// key instead, when the content decodes, so the fuzzer reaches the
// load-and-compile path too.
func FuzzDiskLoad(f *testing.F) {
	seq := `{"version":"v1","program":{"source":"int f(int a, int b) { return a + b; }\n","level":3}}` + "\n"
	// An entry persisted while Partitions still keyed the cache.
	part4 := `{"version":"v1","program":{"source":"int f(int a, int b) { return a + b; }\n","level":3,"partitions":4}}` + "\n"
	f.Add([]byte(part4), false, goldenKeyPart4)
	f.Add([]byte(seq), false, goldenKeyFull)
	f.Add([]byte(seq[:len(seq)/2]), false, goldenKeyFull)
	f.Add([]byte(`{"version":"v0","program":{"source":"int f(void){return 1;}"}}`), true, "")
	f.Add([]byte(`{"version":"v1","program":{"source":"int f( {","level":1}}`), true, "")
	f.Add([]byte(`{"version":"v1","program":{"source":"int f(void){return 1;}","partitions":-1}}`), true, "")
	f.Add([]byte("{not json"), false, "nothex")

	f.Fuzz(func(t *testing.T, data []byte, selfKey bool, keyhex string) {
		var ent diskEntry
		decodeErr := json.Unmarshal(data, &ent)
		contentKey, keyErr := programKey(ent.Program)
		if decodeErr == nil && keyErr == nil && selfKey {
			keyhex = contentKey.String()
		} else if b, err := hex.DecodeString(keyhex); err != nil || len(b) != sha256.Size || hex.EncodeToString(b) != keyhex {
			sum := sha256.Sum256([]byte(keyhex))
			keyhex = hex.EncodeToString(sum[:])
		}
		dir := t.TempDir()
		name := keyhex + diskSuffix
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{Workers: 1, CacheEntries: 4, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		s := e.Stats()
		inPlace := exists(filepath.Join(dir, name))
		inQuarantine := exists(filepath.Join(dir, quarantineDir, name))

		switch {
		case inPlace:
			if s.DiskLoaded != 1 || s.DiskQuarantined != 0 {
				t.Fatalf("entry left in place but loaded %d / quarantined %d", s.DiskLoaded, s.DiskQuarantined)
			}
			if decodeErr != nil || keyErr != nil || contentKey.String() != keyhex {
				t.Fatalf("entry %s loaded, but its content does not hash to it (decode %v, key %v)", name, decodeErr, keyErr)
			}
		case inQuarantine:
			if s.DiskLoaded != 0 || s.DiskQuarantined != 1 {
				t.Fatalf("entry quarantined but loaded %d / quarantined %d", s.DiskLoaded, s.DiskQuarantined)
			}
		default:
			if s.DiskLoaded != 0 || s.DiskQuarantined != 0 {
				t.Fatalf("entry deleted but loaded %d / quarantined %d", s.DiskLoaded, s.DiskQuarantined)
			}
			stale := decodeErr == nil && ent.Version != api.Version
			rejected := decodeErr == nil && keyErr == nil && contentKey.String() == keyhex
			if !stale && !rejected {
				t.Fatalf("entry %s deleted, but it is neither a stale version nor a matching key", name)
			}
		}

		// Nothing is cached under a key its content does not hash to.
		e.mu.Lock()
		defer e.mu.Unlock()
		for k := range e.cache.entries {
			if !inPlace || k.String() != keyhex {
				t.Fatalf("cache holds key %s, want only a loaded %s", k, keyhex)
			}
		}
	})
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
