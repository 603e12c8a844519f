package bench

import (
	"errors"
	"sort"
	"strings"

	"github.com/easyio-sim/easyio/internal/nova"
)

// refFS is the sequential in-memory reference filesystem FuzzFSModel
// holds every system to. It mirrors fsapi.FileSystem, but *nova.File
// cannot be built outside nova, so handles are integers. It copies nova's
// order of error checks, so errors compare by identity, and nova's
// deliberate choices: no rmdir; Unlink, Link and rename-onto of a
// directory give ErrIsDir; a name longer than MaxNameLen gives
// ErrNotExist; a read at or past EOF gives 0, nil; renaming a file onto
// another link to it changes nothing. Where POSIX and nova differ, the
// model follows POSIX and records the departure (see departure).
type refFS struct {
	root    *refNode
	nodes   int
	handles []*refNode // by handle; nil once closed
	dep     departure  // the departure the last operation took
}

// refNode is an inode. An unlinked file lives on while a handle holds it.
type refNode struct {
	id    uint32
	dir   bool
	nlink uint32
	data  []byte
	ents  map[string]*refNode
}

// departure names a place where the model follows POSIX and nova does
// not (ROADMAP item 3).
type departure int

const (
	sameAsNova        departure = iota
	renameDirOntoFile           // POSIX: ENOTDIR; nova replaces the file
	renameIntoSubtree           // POSIX: EINVAL; nova loses the directory in a cycle
	useAfterUnlink              // POSIX: the inode lives on; nova freed it at its last unlink
)

// errInvalid is POSIX's EINVAL for a directory renamed into its own
// subtree; nova has no such error yet.
var errInvalid = errors.New("model: invalid argument")

func newRefFS() *refFS {
	m := &refFS{}
	m.root = m.alloc(true)
	return m
}

func (m *refFS) alloc(dir bool) *refNode {
	m.nodes++
	n := &refNode{id: uint32(m.nodes), dir: dir, nlink: 1}
	if dir {
		n.nlink = 2
		n.ents = map[string]*refNode{}
	}
	return n
}

// splitPath and namei follow nova's path rules: empty and "."
// components are skipped, and a file component is ErrNotDir.
func splitPath(path string) (dir, name string) {
	path = strings.TrimRight(path, "/")
	i := strings.LastIndexByte(path, '/')
	if i < 0 {
		return "/", path
	}
	if i == 0 {
		return "/", path[1:]
	}
	return path[:i], path[i+1:]
}

func (m *refFS) namei(path string) (*refNode, error) {
	cur := m.root
	for _, comp := range strings.Split(path, "/") {
		if comp == "" || comp == "." {
			continue
		}
		if !cur.dir {
			return nil, nova.ErrNotDir
		}
		next, ok := cur.ents[comp]
		if !ok {
			return nil, nova.ErrNotExist
		}
		cur = next
	}
	return cur, nil
}

func (m *refFS) lookupDir(path string) (*refNode, string, error) {
	dirPath, name := splitPath(path)
	if name == "" || len(name) > nova.MaxNameLen {
		return nil, "", nova.ErrNotExist
	}
	dir, err := m.namei(dirPath)
	if err != nil {
		return nil, "", err
	}
	if !dir.dir {
		return nil, "", nova.ErrNotDir
	}
	return dir, name, nil
}

func (m *refFS) open(n *refNode) int {
	m.handles = append(m.handles, n)
	return len(m.handles) - 1
}

func (m *refFS) Create(path string) (int, error) {
	dir, name, err := m.lookupDir(path)
	if err != nil {
		return -1, err
	}
	if _, ok := dir.ents[name]; ok {
		return -1, nova.ErrExist
	}
	n := m.alloc(false)
	dir.ents[name] = n
	return m.open(n), nil
}

func (m *refFS) Mkdir(path string) error {
	dir, name, err := m.lookupDir(path)
	if err != nil {
		return err
	}
	if _, ok := dir.ents[name]; ok {
		return nova.ErrExist
	}
	dir.ents[name] = m.alloc(true)
	return nil
}

func (m *refFS) Open(path string) (int, error) {
	n, err := m.namei(path)
	if err != nil {
		return -1, err
	}
	if n.dir {
		return -1, nova.ErrIsDir
	}
	return m.open(n), nil
}

func (m *refFS) Close(h int) { m.handles[h] = nil }

func (m *refFS) Unlink(path string) error {
	dir, name, err := m.lookupDir(path)
	if err != nil {
		return err
	}
	n, ok := dir.ents[name]
	if !ok {
		return nova.ErrNotExist
	}
	if n.dir {
		return nova.ErrIsDir
	}
	delete(dir.ents, name)
	n.nlink--
	return nil
}

func (m *refFS) Link(oldpath, newpath string) error {
	n, err := m.namei(oldpath)
	if err != nil {
		return err
	}
	if n.dir {
		return nova.ErrIsDir
	}
	dir, name, err := m.lookupDir(newpath)
	if err != nil {
		return err
	}
	if _, ok := dir.ents[name]; ok {
		return nova.ErrExist
	}
	dir.ents[name] = n
	n.nlink++
	return nil
}

func (m *refFS) Rename(oldpath, newpath string) error {
	srcDir, srcName, err := m.lookupDir(oldpath)
	if err != nil {
		return err
	}
	dstDir, dstName, err := m.lookupDir(newpath)
	if err != nil {
		return err
	}
	n, ok := srcDir.ents[srcName]
	if !ok {
		return nova.ErrNotExist
	}
	replaced := dstDir.ents[dstName]
	if replaced == n {
		return nil
	}
	if replaced != nil && replaced.dir {
		return nova.ErrIsDir
	}
	if n.dir && replaced != nil {
		m.dep = renameDirOntoFile
		return nova.ErrNotDir
	}
	if n.dir && n.contains(dstDir) {
		m.dep = renameIntoSubtree
		return errInvalid
	}
	delete(srcDir.ents, srcName)
	dstDir.ents[dstName] = n
	if replaced != nil {
		replaced.nlink--
	}
	return nil
}

// contains reports whether d is n or lies in n's subtree.
func (n *refNode) contains(d *refNode) bool {
	if n == d {
		return true
	}
	for _, c := range n.ents {
		if c.dir && c.contains(d) {
			return true
		}
	}
	return false
}

func (m *refFS) Stat(path string) (nova.Stat, error) {
	n, err := m.namei(path)
	if err != nil {
		return nova.Stat{}, err
	}
	return n.stat(), nil
}

func (n *refNode) stat() nova.Stat {
	st := nova.Stat{Ino: n.id, Kind: nova.KindFile, Size: int64(len(n.data)), Nlink: n.nlink}
	if n.dir {
		st.Kind = nova.KindDir
	}
	return st
}

func (m *refFS) Readdir(path string) ([]string, error) {
	n, err := m.namei(path)
	if err != nil {
		return nil, err
	}
	if !n.dir {
		return nil, nova.ErrNotDir
	}
	names := make([]string, 0, len(n.ents))
	for name := range n.ents {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// file returns handle h's inode, noting a use of an unlinked one.
func (m *refFS) file(h int) *refNode {
	n := m.handles[h]
	if n.nlink == 0 {
		m.dep = useAfterUnlink
	}
	return n
}

func (m *refFS) ReadAt(h int, off int64, buf []byte) (int, error) {
	n := m.file(h)
	if off >= int64(len(n.data)) {
		return 0, nil
	}
	return copy(buf, n.data[off:]), nil
}

func (m *refFS) WriteAt(h int, off int64, data []byte) (int, error) {
	n := m.file(h)
	if len(data) == 0 {
		return 0, nil
	}
	if end := off + int64(len(data)); end > int64(len(n.data)) {
		n.resize(end)
	}
	return copy(n.data[off:], data), nil
}

func (m *refFS) Append(h int, data []byte) (int, error) {
	return m.WriteAt(h, int64(len(m.handles[h].data)), data)
}

func (m *refFS) Truncate(h int, size int64) error {
	m.file(h).resize(size)
	return nil
}

// resize cuts or zero-extends the file to size bytes.
func (n *refNode) resize(size int64) {
	if size <= int64(len(n.data)) {
		n.data = n.data[:size]
		return
	}
	n.data = append(n.data, make([]byte, size-int64(len(n.data)))...)
}

func (m *refFS) Fsync(h int) error {
	m.file(h)
	return nil
}
