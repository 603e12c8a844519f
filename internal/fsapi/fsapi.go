// Package fsapi defines the filesystem interface shared by every system
// under test (NOVA, NOVA-DMA, Odinfs, EasyIO and its Naive ablation), so
// workload generators and applications are written once.
//
// The contract, which internal/bench's reference model checks on all five
// (FuzzFSModel): errors are nova.Err* values and compare by identity.
// Paths skip empty and "." components; a file component gives ErrNotDir,
// an empty leaf or one longer than nova.MaxNameLen ErrNotExist. Create and
// Mkdir give ErrExist on a taken name. Open, Unlink and Link of a
// directory, and a rename onto one, give ErrIsDir; there is no rmdir.
// Renaming a file onto another link to it changes nothing. A file has a
// link per name, a directory two. A write past EOF leaves a hole of
// zeros, a read at or past EOF gives 0, nil, and bytes Truncate cuts
// never return. Fsync charges a syscall; committed work is already durable.
//
// Known departures from POSIX (ROADMAP item 3), each pinned by a file in
// internal/bench/testdata/fuzz/FuzzFSModel: a directory renamed onto a
// file replaces it (rename-dir-onto-file); one renamed into its own
// subtree is lost (rename-into-subtree); an unlinked file's inode and
// blocks are freed while a handle is open on it (handle-after-unlink).
package fsapi

import (
	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/nova"
)

// FileSystem is the POSIX-ish surface the workloads exercise. All methods
// charge virtual CPU/device time against the calling task (nil task means
// functional-only, for setup). A *nova.File from Create or Open is open
// until File.Close, and every path, error arms included, closes it or
// hands it off; the `handlestate` protocol in internal/analysis checks
// this, and `-tags easyio_invariants` asserts it at runtime.
type FileSystem interface {
	Create(t *caladan.Task, path string) (*nova.File, error)
	Open(t *caladan.Task, path string) (*nova.File, error)
	ReadAt(t *caladan.Task, f *nova.File, off int64, buf []byte) (int, error)
	WriteAt(t *caladan.Task, f *nova.File, off int64, data []byte) (int, error)
	Append(t *caladan.Task, f *nova.File, data []byte) (int, error)
	Truncate(t *caladan.Task, f *nova.File, size int64) error
	Unlink(t *caladan.Task, path string) error
	Rename(t *caladan.Task, oldpath, newpath string) error
	Link(t *caladan.Task, oldpath, newpath string) error
	Mkdir(t *caladan.Task, path string) error
	Stat(t *caladan.Task, path string) (nova.Stat, error)
	Fsync(t *caladan.Task, f *nova.File) error
}

// Var ensures nova.FS satisfies the interface; EasyIO and Odinfs embed it
// and override the data paths.
var _ FileSystem = (*nova.FS)(nil)
