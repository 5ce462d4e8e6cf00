package artifact

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var errInjected = errors.New("injected fault")

// faultyFile fails the step named by fail and passes every other call
// through to the real temp file.
type faultyFile struct {
	file
	fail string
}

func (f faultyFile) Chmod(mode fs.FileMode) error {
	if f.fail == "chmod" {
		return errInjected
	}
	return f.file.Chmod(mode)
}

func (f faultyFile) Sync() error {
	if f.fail == "sync" {
		return errInjected
	}
	return f.file.Sync()
}

func (f faultyFile) Close() error {
	err := f.file.Close()
	if f.fail == "close" {
		return errInjected
	}
	return err
}

// injectFault makes step fail in Save for the rest of the test: the
// temp file's creation, chmod, sync or close, the rename, or the
// directory sync. An "encode" fault is the encoder's own error.
func injectFault(t *testing.T, step string) {
	t.Helper()
	oc, or, osd := createTemp, rename, syncDir
	t.Cleanup(func() { createTemp, rename, syncDir = oc, or, osd })
	switch step {
	case "create":
		createTemp = func(string) (file, error) { return nil, errInjected }
	case "chmod", "sync", "close":
		createTemp = func(dir string) (file, error) {
			f, err := oc(dir)
			if err != nil {
				return nil, err
			}
			return faultyFile{file: f, fail: step}, nil
		}
	case "rename":
		rename = func(string, string) error { return errInjected }
	case "syncdir":
		syncDir = func(string) error { return errInjected }
	}
}

const body = `{"format":1,"payload":"the whole artifact"}` + "\n"

// encoder writes body, or half of it and then fails when fail is set.
func encoder(fail bool) func(io.Writer) error {
	return func(w io.Writer) error {
		if fail {
			io.WriteString(w, body[:len(body)/2])
			return errInjected
		}
		_, err := io.WriteString(w, body)
		return err
	}
}

// TestSave: a save leaves exactly the artifact, whole and world-readable.
func TestSave(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	if err := Save(path, "test: saving", encoder(false)); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != body {
		t.Fatalf("artifact = %q (err %v), want %q", b, err, body)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
		t.Fatalf("artifact mode = %v (err %v), want 0644", st.Mode().Perm(), err)
	}
	assertOnly(t, dir, "a.json")
}

// TestSaveFaults: a failure at any step before the artifact is in place
// is an error naming the artifact, and leaves nothing at the final path
// and no temp file behind.
func TestSaveFaults(t *testing.T) {
	for _, step := range []string{"create", "encode", "chmod", "sync", "close", "rename"} {
		t.Run(step, func(t *testing.T) {
			injectFault(t, step)
			dir := t.TempDir()
			path := filepath.Join(dir, "a.json")
			err := Save(path, "test: saving", encoder(step == "encode"))
			if !errors.Is(err, errInjected) || !strings.HasPrefix(err.Error(), "test: saving: ") {
				t.Fatalf("Save = %v, want the injected fault prefixed with the artifact's name", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("final path exists after a failed %s (stat err %v)", step, err)
			}
			assertOnly(t, dir)
		})
	}
}

// TestSaveDirSyncFault: a directory sync failure is reported, though the
// rename already put the whole artifact in place.
func TestSaveDirSyncFault(t *testing.T) {
	injectFault(t, "syncdir")
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	if err := Save(path, "test: saving", encoder(false)); !errors.Is(err, errInjected) {
		t.Fatalf("Save = %v, want the injected fault", err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != body {
		t.Fatalf("artifact = %q (err %v), want the whole body", b, err)
	}
	assertOnly(t, dir, "a.json")
}

// assertOnly fails unless dir holds exactly the named files.
func assertOnly(t *testing.T, dir string, names ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if strings.Join(got, ",") != strings.Join(names, ",") {
		t.Fatalf("%s holds %v, want %v", dir, got, names)
	}
}
