package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	gir "github.com/girlib/gir"
)

// partDirName names partition i's subdirectory under a tier directory.
// The zero-padded form keeps lexical order equal to partition order, so
// Recover can rebuild the tier from a directory listing alone.
func partDirName(i int) string { return fmt.Sprintf("part-%03d", i) }

// EnableWAL makes every partition's mutations crash-safe independently:
// partition i snapshots and logs under dir/part-00i. A crash loses at
// most each partition's unsynced tail — partitions fail independently,
// and the version vector after recovery is whatever per-partition
// prefixes were durable.
func (c *Coordinator) EnableWAL(dir string, opts gir.WALOptions) error {
	for i := range c.parts {
		if err := c.parts[i].ds.EnableWAL(filepath.Join(dir, partDirName(i)), opts); err != nil {
			return fmt.Errorf("shard: partition %d: %w", i, err)
		}
	}
	return nil
}

// Checkpoint persists every partition independently (Engine.Checkpoint:
// dataset snapshot + warm-cache snapshot + log truncation, per
// partition). Partitions are checkpointed one at a time — each blocks
// only its own writers — so the tier never stops serving globally; the
// resulting on-disk cut is per-partition consistent, which is exactly the
// tier's consistency unit (writes never span partitions).
func (c *Coordinator) Checkpoint(dir string) error {
	for i := range c.parts {
		if err := c.parts[i].eng.Checkpoint(filepath.Join(dir, partDirName(i))); err != nil {
			return fmt.Errorf("shard: partition %d: %w", i, err)
		}
	}
	return nil
}

// Recover rebuilds a tier from a directory EnableWAL/Checkpoint
// populated: every part-* subdirectory is restored independently via
// gir.RecoverEngine (snapshot + WAL replay + warm cache when its version
// matches). opts.Parts, when set, must match the on-disk partition count:
// assignment hashes over it, so it is part of the data's identity, not a
// tuning knob.
func Recover(dir string, wopts gir.WALOptions, opts Options) (*Coordinator, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "part-") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("shard: %s holds no part-* directories", dir)
	}
	if opts.Parts != 0 && opts.Parts != len(names) {
		return nil, fmt.Errorf("shard: %s holds %d partitions, options say %d", dir, len(names), opts.Parts)
	}
	for i, name := range names {
		if name != partDirName(i) {
			return nil, fmt.Errorf("shard: %s is missing %s (found %s)", dir, partDirName(i), name)
		}
	}
	c := &Coordinator{}
	for i, name := range names {
		ds, eng, err := gir.RecoverEngine(filepath.Join(dir, name), wopts, opts.Engine)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("shard: partition %d: %w", i, err)
		}
		c.parts = append(c.parts, part{ds: ds, eng: eng})
	}
	c.dim = c.parts[0].ds.Dim()
	c.space = c.parts[0].ds.Space()
	return c, nil
}
