// Package artifact holds the shared persistence discipline of the
// repository's JSON artifacts — autotune tables, communication schedules,
// schedule-registry records and bench baselines: every Save is atomic
// (temp file + rename, so a concurrent reader never sees a torn file),
// durable (the temp file is synced before the rename and the directory
// after it, so a crash leaves the old file or the whole new one) and
// world-readable (artifacts are produced once and read by any job, so
// CreateTemp's restrictive 0600 must not survive the rename).
package artifact

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// file is the part of *os.File that Save writes through.
type file interface {
	io.Writer
	Name() string
	Chmod(fs.FileMode) error
	Sync() error
	Close() error
}

// Test seams: the filesystem calls of Save, swappable so tests can fail
// each step.
var (
	createTemp = func(dir string) (file, error) {
		f, err := os.CreateTemp(dir, ".artifact-*")
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	rename  = os.Rename
	syncDir = func(dir string) error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
		return err
	}
)

// Save atomically and durably writes the output of encode to path. what
// names the artifact in error messages (e.g. "autotune: saving table").
// A failure before the rename leaves nothing new behind: no temp file,
// and path as it was. A failure to sync the directory after the rename
// is reported too, though path then already holds the whole new file.
func Save(path, what string, encode func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := createTemp(dir)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		os.Remove(tmp)
		return fmt.Errorf("%s: %w", what, err)
	}
	err = encode(f)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	if err := rename(tmp, path); err != nil {
		return fail(err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("%s: syncing %s: %w", what, dir, err)
	}
	return nil
}
