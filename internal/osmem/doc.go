// Package osmem hands out zero-filled byte regions that live outside
// the Go heap: anonymous, private OS mappings whose pages the kernel
// backs on first touch, so a region costs resident memory only where it
// is written, and its bytes never count toward the collector's goal.
// Two users share it: the engine's address spaces (internal/mem) and the
// in-memory storage backend's object pages (internal/storage/blob).
//
// Under -race, and off unix, a region is a plain heap allocation
// instead, because the race detector does not see accesses to mapped
// pages; Unmap then leaves it to the collector.
//
// A region must not be touched after Unmap: on the mapping build that
// is a fault, not a Go panic. Callers own that rule.
package osmem
