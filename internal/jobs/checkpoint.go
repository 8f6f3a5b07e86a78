package jobs

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"semsim/internal/solver"
)

// FileFormat identifies a jobs checkpoint file; it is the first field
// of the JSON envelope so foreign files fail fast.
const FileFormat = "semsim-run-checkpoint"

// FileVersion is the current envelope layout version. Load rejects any
// other version.
const FileVersion = 1

// runFile is the on-disk checkpoint envelope: a versioned, checksummed
// wrapper around one solver snapshot, tagged with enough identity (the
// deck key and the point/run coordinates) that a resumed batch run can
// prove the file belongs to the work it is about to redo. The solver
// payload carries its own version and options hash on top.
//
//statecover:root save=json
type runFile struct {
	Format     string             `json:"format"`
	Version    int                `json:"version"`
	Key        string             `json:"key"`
	Point      int                `json:"point"`
	Run        int                `json:"run"`
	Phase      string             `json:"phase"`
	PhaseStart uint64             `json:"phase_start_events"`
	Solver     *solver.Checkpoint `json:"solver,omitempty"`
	// Result is present instead of Solver once the task has completed
	// (Phase == "done"): a resumed batch reuses the finished result
	// rather than re-simulating the task.
	Result *runResult `json:"result,omitempty"`
	// Checksum is CRC-32 (IEEE) over the file's canonical JSON with this
	// field zeroed; it catches truncation and bit rot that still decode.
	Checksum uint32 `json:"checksum"`
}

// checksum computes the envelope's CRC over its canonical JSON with the
// Checksum field zeroed. json.Marshal of this struct is deterministic
// (struct order fixed, map keys sorted, floats shortest-form), so a
// decode–re-encode round trip reproduces the signed bytes exactly.
func (f *runFile) checksum() (uint32, error) {
	saved := f.Checksum
	f.Checksum = 0
	blob, err := json.Marshal(f)
	f.Checksum = saved
	if err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(blob), nil
}

// ckptStats reports one checkpoint write for the engine's latency and
// size metrics: payload bytes, the fsync's share of the time, and the
// whole marshal-write-sync-rename sequence.
type ckptStats struct {
	bytes   int
	fsyncNS int64
	totalNS int64
}

// saveRunFile writes the envelope atomically: marshal, write to a
// temporary file in the same directory, fsync, then rename over the
// final path. A crash at any instant leaves either the previous
// complete checkpoint or the new complete checkpoint, never a torn one.
//
//semsim:resumepure
func saveRunFile(path string, f *runFile) error {
	_, err := saveRunFileTimed(path, f)
	return err
}

// saveRunFileTimed is saveRunFile returning write statistics. The
// wall-clock reads feed the checkpoint latency metrics only — no timing
// value is written into the envelope or any other persisted state, so
// they cannot perturb a resumed trajectory.
//
//semsim:resumepure
func saveRunFileTimed(path string, f *runFile) (ckptStats, error) {
	var st ckptStats
	start := time.Now() //resumepure:ok wall clock feeds checkpoint latency metrics only, never persisted state
	f.Format = FileFormat
	f.Version = FileVersion
	sum, err := f.checksum()
	if err != nil {
		return st, fmt.Errorf("jobs: encode checkpoint: %w", err)
	}
	f.Checksum = sum
	blob, err := json.Marshal(f)
	if err != nil {
		return st, fmt.Errorf("jobs: encode checkpoint: %w", err)
	}
	st.bytes = len(blob)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return st, fmt.Errorf("jobs: write checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { os.Remove(tmpName) }
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		cleanup()
		return st, fmt.Errorf("jobs: write checkpoint: %w", err)
	}
	syncStart := time.Now() //resumepure:ok wall clock feeds checkpoint latency metrics only, never persisted state
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return st, fmt.Errorf("jobs: sync checkpoint: %w", err)
	}
	st.fsyncNS = int64(time.Since(syncStart)) //resumepure:ok wall clock feeds checkpoint latency metrics only, never persisted state
	if err := tmp.Close(); err != nil {
		cleanup()
		return st, fmt.Errorf("jobs: close checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return st, fmt.Errorf("jobs: commit checkpoint: %w", err)
	}
	st.totalNS = int64(time.Since(start)) //resumepure:ok wall clock feeds checkpoint latency metrics only, never persisted state
	return st, nil
}

// loadRunFile reads and validates a checkpoint envelope: format tag,
// version, checksum and payload presence. Corruption — truncation,
// flipped bits, foreign JSON — is reported as an error, never resumed
// from.
//
//semsim:resumepure
func loadRunFile(path string) (*runFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("jobs: checkpoint %s is corrupt: %w", path, err)
	}
	if f.Format != FileFormat {
		return nil, fmt.Errorf("jobs: %s is not a semsim checkpoint (format %q)", path, f.Format)
	}
	if f.Version != FileVersion {
		return nil, fmt.Errorf("jobs: checkpoint %s has version %d, this build reads version %d", path, f.Version, FileVersion)
	}
	want, err := f.checksum()
	if err != nil {
		return nil, err
	}
	if f.Checksum != want {
		return nil, fmt.Errorf("jobs: checkpoint %s failed its checksum (stored %08x, computed %08x): refusing to resume from corrupt state", path, f.Checksum, want)
	}
	if f.Phase == phaseDone {
		if f.Result == nil {
			return nil, fmt.Errorf("jobs: checkpoint %s marks the task done but carries no result", path)
		}
	} else if f.Solver == nil {
		return nil, fmt.Errorf("jobs: checkpoint %s carries no solver state", path)
	}
	return &f, nil
}

// LoadSim reads a snapshot written by RunSim's Checkpointer and
// returns the solver state, validating the envelope's format,
// version and checksum first. Restoring it into a Sim additionally
// validates the solver-side version and options hash.
func LoadSim(path string) (*solver.Checkpoint, error) {
	f, err := loadRunFile(path)
	if err != nil {
		return nil, err
	}
	return f.Solver, nil
}
