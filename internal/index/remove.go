package index

import (
	"path/filepath"

	"xrank/internal/storage"
)

// RemoveFiles best-effort deletes the index's on-disk files — every
// pagefile and lexicon named in each shard's manifest, the per-shard
// meta.json commit points, shards.json and the shard directories. Errors are ignored: retirement runs after a
// manifest swap has already committed, so a crash mid-removal merely
// leaves orphan files that no manifest references. Call before Close
// (Close drops the shard handles); on POSIX unlinking open files is
// fine. The containing directory itself is left to the caller, which
// knows whether it holds anything else.
func (sh *Sharded) RemoveFiles(fs storage.FS) {
	fsys := storage.DefaultFS(fs)
	for _, ix := range sh.shards {
		if ix == nil {
			continue
		}
		for name := range ix.Meta.Files {
			fsys.Remove(filepath.Join(ix.Dir, name))
		}
		fsys.Remove(filepath.Join(ix.Dir, fileMeta))
	}
	fsys.Remove(filepath.Join(sh.Dir, fileShards))
	for s := range sh.shards {
		fsys.Remove(shardDir(sh.Dir, s))
	}
}
