package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEnableCacheDirFailFast pins the -cache-dir contract: missing parents
// are created when possible, and a path that can never accept writes is
// rejected immediately with one clear error — not discovered later as
// silent per-shard write failures.
func TestEnableCacheDirFailFast(t *testing.T) {
	tmp := t.TempDir()
	blocker := filepath.Join(tmp, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	roParent := filepath.Join(tmp, "ro")
	if err := os.Mkdir(roParent, 0o555); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		dir     string
		wantErr string // substring of the one-line error; "" means success
		skip    bool
	}{
		{name: "existing directory", dir: tmp},
		{name: "missing parents are created", dir: filepath.Join(tmp, "a", "b", "c")},
		{name: "in-memory only", dir: ""},
		{name: "path is an existing file", dir: blocker, wantErr: "cache dir"},
		{name: "parent is a file", dir: filepath.Join(blocker, "sub"), wantErr: "cache dir"},
		{
			name: "read-only parent", dir: filepath.Join(roParent, "sub"),
			wantErr: "cache dir",
			// root ignores mode bits, so the permission probe cannot fail.
			skip: os.Geteuid() == 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skip {
				t.Skip("not enforceable for this user")
			}
			err := NewRunner().EnableCache(tc.dir)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("EnableCache(%q) = %v, want success", tc.dir, err)
				}
				if tc.dir != "" {
					if fi, serr := os.Stat(tc.dir); serr != nil || !fi.IsDir() {
						t.Fatalf("EnableCache(%q) did not leave a directory behind: %v", tc.dir, serr)
					}
				}
				return
			}
			if err == nil {
				t.Fatalf("EnableCache(%q) succeeded, want error mentioning %q", tc.dir, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), tc.dir) {
				t.Fatalf("EnableCache(%q) error %q does not name the problem and the path", tc.dir, err)
			}
			if strings.ContainsRune(err.Error(), '\n') {
				t.Fatalf("EnableCache(%q) error is not one line: %q", tc.dir, err)
			}
		})
	}
}

// TestEnableDefaultCacheExplicitDirFails pins the flag-level behavior: an
// explicitly requested -cache-dir that cannot be used is an error (the
// caller exits), while noCache simply reports the cache off.
func TestEnableDefaultCacheExplicitDirFails(t *testing.T) {
	r := NewRunner()
	bad := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(bad, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if on, err := r.EnableDefaultCache("prog", false, bad); err == nil || on {
		t.Fatalf("explicit unusable -cache-dir: got on=%v err=%v, want fail-fast error", on, err)
	}
	if on, err := r.EnableDefaultCache("prog", true, bad); err != nil || on {
		t.Fatalf("-no-cache: got on=%v err=%v, want off with no error", on, err)
	}
	if on, err := r.EnableDefaultCache("prog", false, filepath.Join(t.TempDir(), "fresh")); err != nil || !on {
		t.Fatalf("usable explicit dir: got on=%v err=%v, want enabled", on, err)
	}
}
