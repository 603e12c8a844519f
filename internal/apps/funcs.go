package apps

import (
	"regexp"

	"github.com/easyio-sim/easyio/internal/caladan"
	"github.com/easyio-sim/easyio/internal/codec"
	"github.com/easyio-sim/easyio/internal/fsapi"
	"github.com/easyio-sim/easyio/internal/graph"
)

// Functional application kernels: unlike the Run loop (which charges
// calibrated virtual compute), these execute the real transforms on the
// bytes the filesystem returns. examples/analytics uses them to
// demonstrate the public API on genuine workloads.

// SnappyDecompressFile decompresses a codec file into a new file at
// dstPath (nova.ErrExist if it exists) and returns the plain size.
func SnappyDecompressFile(t *caladan.Task, fs fsapi.FileSystem, srcPath, dstPath string) (int, error) {
	src, err := fs.Open(t, srcPath)
	if err != nil {
		return 0, err
	}
	defer src.Close()
	comp := make([]byte, src.Size())
	if _, err := fs.ReadAt(t, src, 0, comp); err != nil {
		return 0, err
	}
	plain, err := codec.Decompress(comp)
	if err != nil {
		return 0, err
	}
	dst, err := fs.Create(t, dstPath)
	if err != nil {
		return 0, err
	}
	defer dst.Close()
	if _, err := fs.WriteAt(t, dst, 0, plain); err != nil {
		return 0, err
	}
	return len(plain), nil
}

// GrepFile counts lines of the file matching pattern.
func GrepFile(t *caladan.Task, fs fsapi.FileSystem, pattern, path string) (int, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return 0, err
	}
	f, err := fs.Open(t, path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	data := make([]byte, f.Size())
	if _, err := fs.ReadAt(t, f, 0, data); err != nil {
		return 0, err
	}
	count := 0
	start := 0
	for i := 0; i <= len(data); i++ {
		if i == len(data) || data[i] == '\n' {
			if re.Match(data[start:i]) {
				count++
			}
			start = i + 1
		}
	}
	return count, nil
}

// BFSFromFile reads a serialized graph and runs BFS from src, returning
// the number of reachable vertices.
func BFSFromFile(t *caladan.Task, fs fsapi.FileSystem, path string, src int) (int, error) {
	f, err := fs.Open(t, path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	data := make([]byte, f.Size())
	if _, err := fs.ReadAt(t, f, 0, data); err != nil {
		return 0, err
	}
	g, err := graph.Unmarshal(data)
	if err != nil {
		return 0, err
	}
	reach := 0
	for _, d := range g.BFS(src) {
		if d >= 0 {
			reach++
		}
	}
	return reach, nil
}
