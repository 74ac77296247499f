package gir

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// crashPoints is the deterministic population both the helper process and
// the checking parent rebuild — large enough that the helper's checkpoints
// are mostly delta appends, with a compaction every few.
func crashPoints() [][]float64 {
	r := rand.New(rand.NewSource(161))
	points := make([][]float64, 3000)
	for i := range points {
		points[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	return points
}

// TestCrashHelperProcess is not a test: it is the victim body re-executed
// by TestKillDurability in a child process. It opens (or creates) the
// durable dataset, performs one SyncEvery=1 insert, acknowledges it on
// stdout, then churns checkpoints and inserts until the parent SIGKILLs
// it — so the kill lands at an arbitrary point of a delta append, a
// compaction's base write, a WAL append, or the truncate behind them. It
// reports its first compaction, so the parent kills a run that has been
// through both kinds of checkpoint.
func TestCrashHelperProcess(t *testing.T) {
	dir := os.Getenv("GIR_CRASH_DIR")
	if dir == "" {
		t.Skip("helper body; only runs re-executed by TestKillDurability")
	}
	var ds *Dataset
	var err error
	if _, statErr := os.Stat(filepath.Join(dir, datasetSnapName)); statErr == nil {
		ds, err = Recover(dir, WALOptions{SyncEvery: 1})
	} else {
		ds, err = NewDataset(crashPoints())
		if err == nil {
			err = ds.EnableWAL(dir, WALOptions{SyncEvery: 1})
		}
	}
	if err != nil {
		fmt.Printf("HELPER-ERR %v\n", err)
		os.Exit(1)
	}
	ackID := int64(1 << 40)
	fmt.Sscan(os.Getenv("GIR_CRASH_ACK_ID"), &ackID)
	if err := ds.Insert(ackID, []float64{0.123, 0.456, 0.789}); err != nil {
		fmt.Printf("HELPER-ERR %v\n", err)
		os.Exit(1)
	}
	// The insert returned with SyncEvery=1: it is durable NOW, whatever
	// happens next. Tell the parent, then churn until killed.
	fmt.Println("ACKED")
	r := rand.New(rand.NewSource(time.Now().UnixNano()))
	id := ackID + 1
	appended, compacted := false, false
	for {
		if err := ds.Checkpoint(dir); err != nil {
			fmt.Printf("HELPER-ERR %v\n", err)
			os.Exit(1)
		}
		if ds.DeltaStats().Segments > 0 {
			appended = true
		} else if appended && !compacted {
			compacted = true
			fmt.Println("COMPACTED")
		}
		for i := 0; i < 16; i++ {
			if err := ds.Insert(id, []float64{r.Float64(), r.Float64(), r.Float64()}); err != nil {
				fmt.Printf("HELPER-ERR %v\n", err)
				os.Exit(1)
			}
			id++
		}
	}
}

// TestKillDurability is the acceptance criterion's kill -9 test: a
// process killed after Insert returned (SyncEvery=1) must recover that
// insert, and a kill landing mid-checkpoint — mid delta append, mid base
// write, mid WAL append, or between either write and the log truncate —
// must leave the directory fully recoverable (the previous snapshot state
// is never corrupted; replay is idempotent). Each round waits for the helper
// to have appended segments and compacted them once before the kill, and
// the later rounds also exercise recovery of a directory that already holds
// crash debris.
func TestKillDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns helper processes")
	}
	dir := t.TempDir()
	for round := 0; round < 3; round++ {
		ackID := int64(1<<40) + int64(round)
		cmd := exec.Command(os.Args[0], "-test.run", "TestCrashHelperProcess")
		cmd.Env = append(os.Environ(),
			"GIR_CRASH_DIR="+dir,
			fmt.Sprintf("GIR_CRASH_ACK_ID=%d", ackID))
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(stdout)
		acked, compacted := false, false
		for !compacted && sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "HELPER-ERR") {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("round %d: helper failed: %s", round, line)
			}
			acked = acked || line == "ACKED"
			compacted = line == "COMPACTED"
		}
		if !acked || !compacted {
			cmd.Wait()
			t.Fatalf("round %d: helper exited early (insert acknowledged: %v, crossed a compaction: %v)", round, acked, compacted)
		}
		// Let the kill land somewhere inside the checkpoint/insert churn.
		time.Sleep(time.Duration(7+round*16) * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait()

		ds, err := Recover(dir, WALOptions{SyncEvery: 1})
		if err != nil {
			t.Fatalf("round %d: recovery after kill -9 failed: %v", round, err)
		}
		// The acknowledged insert must have survived; deleting it by exact
		// id+point is the membership check (and itself gets logged for the
		// next round).
		if ok, err := ds.Delete(ackID, []float64{0.123, 0.456, 0.789}); err != nil || !ok {
			t.Fatalf("round %d: acknowledged SyncEvery=1 insert %d was lost (%v, %v)", round, ackID, ok, err)
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Whatever instant the kills hit, the snapshot in the directory is a
	// loadable one (atomic replace left old or new, never a hybrid).
	ds, err := openBase(filepath.Join(dir, datasetSnapName))
	if err != nil {
		t.Fatalf("post-crash snapshot does not load: %v", err)
	}
	if ds.Len() == 0 {
		t.Fatal("post-crash snapshot is empty")
	}
}
