package jobs

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeTestCheckpoint produces a valid on-disk checkpoint by draining a
// real run at its first refresh boundary.
func writeTestCheckpoint(t *testing.T, dir string) string {
	t.Helper()
	d := parseDeck(t, testDeck)
	closed := make(chan struct{})
	close(closed)
	if _, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{
		Dir: dir, Every: 1, Resume: true, Workers: 1, Stop: closed,
	}); err != ErrInterrupted {
		t.Fatalf("expected drain, got %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint written (%v)", err)
	}
	return files[0]
}

// Corrupted checkpoints — truncated, bit-flipped, wrong format or
// version — must be rejected loudly, never silently resumed from.
func TestLoadRejectsCorruptCheckpoints(t *testing.T) {
	path := writeTestCheckpoint(t, t.TempDir())
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadRunFile(path); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}

	damage := map[string]func(t *testing.T, p string){
		"truncated": func(t *testing.T, p string) {
			if err := os.WriteFile(p, blob[:len(blob)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"bit flip": func(t *testing.T, p string) {
			bad := append([]byte(nil), blob...)
			// Flip a digit inside the payload, beyond the header fields.
			for i := len(bad) / 2; i < len(bad); i++ {
				if bad[i] >= '1' && bad[i] <= '8' {
					bad[i]++
					break
				}
			}
			if err := os.WriteFile(p, bad, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"foreign json": func(t *testing.T, p string) {
			if err := os.WriteFile(p, []byte(`{"hello":"world"}`), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"not json": func(t *testing.T, p string) {
			if err := os.WriteFile(p, []byte("\x00\x01garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"wrong version": func(t *testing.T, p string) {
			var f runFile
			if err := json.Unmarshal(blob, &f); err != nil {
				t.Fatal(err)
			}
			f.Version = 99
			sum, err := f.checksum()
			if err != nil {
				t.Fatal(err)
			}
			f.Checksum = sum
			out, err := json.Marshal(&f)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, out, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"empty": func(t *testing.T, p string) {
			if err := os.WriteFile(p, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range damage {
		t.Run(strings.ReplaceAll(name, " ", "_"), func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "bad.ckpt")
			corrupt(t, p)
			if _, err := loadRunFile(p); err == nil {
				t.Fatalf("%s checkpoint accepted", name)
			}
			// The deck runner must surface the corruption, not restart
			// silently: losing checkpointed work without saying so would
			// mask data loss.
			d := parseDeck(t, testDeck)
			key, err := deckKey(d)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Dir(p)
			if err := os.Rename(p, checkpointPath(dir, key, 0, 0)); err != nil {
				t.Fatal(err)
			}
			if _, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{
				Dir: dir, Resume: true, Workers: 1,
			}); err == nil {
				t.Fatalf("deck resumed over a %s checkpoint", name)
			}
		})
	}
}

// killDeck is a longer sweep for the SIGKILL test: slow enough that the
// parent reliably lands a kill mid-run, checkpointed often.
const killDeck = `
junc 1 1 4 1e-6 1e-18
junc 2 2 4 1e-6 1e-18
cap 3 4 3e-18
vdc 1 0.02
vdc 2 -0.02
vdc 3 0.004
record 1
jumps 60000
sweep 2 0.02 0.02
symm 1
seed 7
temp 5
adaptive 0.05
refresh 256
`

// TestHelperKillDeck is not a test: it is the subprocess body for
// TestKillMinusNineResume, executing killDeck with checkpointing until
// the parent SIGKILLs it.
func TestHelperKillDeck(t *testing.T) {
	dir := os.Getenv("SEMSIM_JOBS_KILL_DIR")
	if dir == "" {
		t.Skip("subprocess helper; driven by TestKillMinusNineResume")
	}
	d := parseDeck(t, killDeck)
	if _, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{
		Dir: dir, Every: 1, Resume: true, Workers: 2,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestKillMinusNineResume proves the crash-safety claim end to end: a
// process running a checkpointed deck is SIGKILLed (no cleanup, no
// signal handler) at arbitrary instants, repeatedly; resuming from the
// surviving files yields results bit-identical to a never-killed run.
func TestKillMinusNineResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	d := parseDeck(t, killDeck)
	ref, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	kills := 0
	for attempt := 0; attempt < 4; attempt++ {
		cmd := exec.Command(os.Args[0], "-test.run=TestHelperKillDeck$")
		cmd.Env = append(os.Environ(), "SEMSIM_JOBS_KILL_DIR="+dir)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()

		// Kill as soon as checkpoint files exist — mid-simulation, at a
		// point no code path chose.
		deadline := time.After(30 * time.Second)
		armed := false
	watch:
		for {
			select {
			case err := <-exited:
				if err != nil {
					t.Fatalf("helper failed on its own: %v", err)
				}
				break watch // finished before we could kill it
			case <-deadline:
				cmd.Process.Kill()
				t.Fatal("helper never wrote a checkpoint")
			default:
			}
			if files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(files) > 0 {
				if armed {
					cmd.Process.Kill() // SIGKILL: no deferred cleanup runs
					<-exited
					kills++
					break watch
				}
				// Arm one poll late so some attempts kill during a write.
				armed = true
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if kills == 0 {
		t.Skip("helper always finished before the kill landed; nothing proven")
	}
	t.Logf("landed %d SIGKILLs", kills)

	got, err := ExecuteDeck(context.Background(), d, Overrides{}, RunConfig{
		Dir: dir, Every: 1, Resume: true, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, ref, got, "after SIGKILL")
}
