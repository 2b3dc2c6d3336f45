//go:build linux && (amd64 || arm64)

package storage

import (
	"os"
	"syscall"
)

// POSIX_FADV_* values from fadvise(2).
const (
	fadvRandom   = 1 // disable kernel readahead on this handle
	fadvDontNeed = 4 // drop this file's cached pages
)

// adviseRandom turns off kernel readahead on a spill file handle. The
// buffer pool owns caching and readahead for segment pages — letting the
// kernel read ahead as well double-caches the file and hands the serial scan
// an invisible prefetcher, so readahead would no longer be the explicit,
// pool-accounted operation the cost model reasons about. Best-effort.
func adviseRandom(f *os.File) {
	syscall.Syscall6(syscall.SYS_FADVISE64, f.Fd(), 0, 0, fadvRandom, 0, 0)
}

// DropOSCache evicts path's pages from the operating-system page cache so a
// subsequent read is a genuinely cold disk read. The file is fsynced first —
// dirty pages cannot be dropped — then posix_fadvise(DONTNEED) is issued over
// the whole file. Best-effort: benchmarks that want cold-read numbers call it
// between runs; correctness never depends on it.
func DropOSCache(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return err
	}
	if _, _, errno := syscall.Syscall6(syscall.SYS_FADVISE64, f.Fd(), 0, 0, fadvDontNeed, 0, 0); errno != 0 {
		return errno
	}
	return nil
}
