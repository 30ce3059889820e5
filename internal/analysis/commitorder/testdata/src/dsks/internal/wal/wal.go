// Package wal stubs the write-ahead log operation commitorder ranks.
package wal

// Record is one logged mutation.
type Record struct {
	Type int
	LSN  uint64
}

// Log is the write-ahead log.
type Log struct {
	next uint64
}

// Append writes a record (rank 1).
func (l *Log) Append(r Record) (uint64, error) {
	l.next++
	return l.next, nil
}
