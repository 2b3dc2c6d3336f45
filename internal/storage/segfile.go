package storage

import (
	"fmt"
	"hash/crc32"
	"os"
)

// spillFile is the disk half of a spilled segment: a file holding the page
// payloads back to back, page 0 first, and nothing else. Everything else a
// read needs (row counts, accounted bytes, the codec's dictionaries) stays
// in memory with the segment; the spill file keeps each page's offset and
// CRC32, so a read checks what the disk, input from outside the program,
// hands back.
type spillFile struct {
	f    *os.File
	path string
	at   []int64  // at[i] is page i's first byte; at[len(crc)] the file size
	crc  []uint32 // CRC32 (IEEE) of each page's payload
}

// writeSpillFile writes the pages' payloads to path (truncating any previous
// file), syncs it and returns an open handle for reads. Every page must still
// hold its payload.
func writeSpillFile(path string, pages []EncodedPage) (*spillFile, error) {
	sf := &spillFile{path: path, at: make([]int64, len(pages)+1), crc: make([]uint32, len(pages))}
	for i := range pages {
		p := &pages[i]
		if p.Payload == nil && p.Rows > 0 {
			return nil, fmt.Errorf("storage: page %d has no payload (segment already spilled?)", i)
		}
		sf.at[i+1] = sf.at[i] + int64(len(p.Payload))
		sf.crc[i] = crc32.ChecksumIEEE(p.Payload)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	for i := range pages {
		if _, err := f.Write(pages[i].Payload); err != nil {
			_ = f.Close() // best-effort cleanup; the write error is the story
			return nil, err
		}
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // best-effort cleanup; the sync error is the story
		return nil, err
	}
	adviseRandom(f)
	sf.f = f
	return sf, nil
}

// readPage reads page i's payload via ReadAt and verifies its checksum.
func (sf *spillFile) readPage(i int) ([]byte, error) {
	if i < 0 || i >= len(sf.crc) {
		return nil, fmt.Errorf("storage: %s: page %d of %d", sf.path, i, len(sf.crc))
	}
	buf := make([]byte, sf.at[i+1]-sf.at[i])
	if len(buf) > 0 {
		if _, err := sf.f.ReadAt(buf, sf.at[i]); err != nil {
			return nil, fmt.Errorf("storage: %s: page %d: %w", sf.path, i, err)
		}
	}
	if crc32.ChecksumIEEE(buf) != sf.crc[i] {
		return nil, fmt.Errorf("storage: %s: page %d: checksum mismatch", sf.path, i)
	}
	return buf, nil
}

// readPageSpan reads pages [lo, hi) in one ReadAt over their contiguous file
// range and returns the per-page payloads, each checksum-verified and copied
// out of the span buffer (so a buffer pool admitting individual pages never
// retains the whole span). Coalescing is the point: one span read runs at
// sequential-disk bandwidth where hi-lo individual page reads would each pay
// a seek-sized latency.
func (sf *spillFile) readPageSpan(lo, hi int) ([][]byte, error) {
	if lo < 0 || hi > len(sf.crc) || lo >= hi {
		return nil, fmt.Errorf("storage: %s: page span [%d,%d) of %d", sf.path, lo, hi, len(sf.crc))
	}
	start := sf.at[lo]
	buf := make([]byte, sf.at[hi]-start)
	if len(buf) > 0 {
		if _, err := sf.f.ReadAt(buf, start); err != nil {
			return nil, fmt.Errorf("storage: %s: pages [%d,%d): %w", sf.path, lo, hi, err)
		}
	}
	out := make([][]byte, hi-lo)
	for i := lo; i < hi; i++ {
		page := buf[sf.at[i]-start : sf.at[i+1]-start]
		if crc32.ChecksumIEEE(page) != sf.crc[i] {
			return nil, fmt.Errorf("storage: %s: page %d: checksum mismatch", sf.path, i)
		}
		out[i-lo] = append([]byte(nil), page...)
	}
	return out, nil
}

// remove closes and deletes the file.
func (sf *spillFile) remove() error {
	err := sf.f.Close()
	if rmErr := os.Remove(sf.path); err == nil {
		err = rmErr
	}
	return err
}
