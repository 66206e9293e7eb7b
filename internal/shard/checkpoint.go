package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// checkpoint is the durable form of core.RoundState: everything needed to
// resume the noise–delay fixpoint after a restart. The analysis state
// itself is NOT saved — padding-seeded engine rebuilds are exactly
// equivalent to the incremental path (the core.Session rebuild contract),
// so the cumulative padding plus the divergence-watchdog state is the whole
// fixpoint.
//
// A run keeps one JSON file per token under Config.CheckpointDir, written
// with wal.WriteFileAtomic (temp file, fsync, rename, directory fsync), so
// a crash mid-save leaves the previous checkpoint intact and an
// acknowledged save survives power loss.
type checkpoint struct {
	// Token identifies the run.
	Token string `json:"token"`
	// Round is the last fully completed round.
	Round int `json:"round"`
	// Padding is the cumulative window padding after Round, by net name in
	// name order: the file names nets, the run pads them by ID.
	Padding []namedPad `json:"padding,omitempty"`
	// PrevGrowth is the round's largest per-net padding increase; nil
	// encodes the +Inf baseline, which JSON cannot carry.
	PrevGrowth *float64 `json:"prevGrowth,omitempty"`
	// Stalled counts consecutive non-contracting rounds so far.
	Stalled int `json:"stalled,omitempty"`
	// SavedAt is the wall-clock save time (RFC3339), informational only.
	SavedAt string `json:"savedAt,omitempty"`
}

// namedPad is one net's padding in the file.
type namedPad struct {
	Net string  `json:"net"`
	Pad float64 `json:"pad"`
}

// ckptFile maps a token to its file under dir. A byte outside
// [A-Za-z0-9._-] — '%' among them — is escaped as %XX, so the name is
// filesystem-safe and no two tokens share a file.
func ckptFile(dir, token string) string {
	const hex = "0123456789ABCDEF"
	safe := make([]byte, 0, len(token))
	for i := 0; i < len(token); i++ {
		switch c := token[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
			safe = append(safe, c)
		default:
			safe = append(safe, '%', hex[c>>4], hex[c&15])
		}
	}
	return filepath.Join(dir, string(safe)+".ckpt.json")
}

func saveCheckpoint(dir string, cp *checkpoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: checkpoint dir: %w", err)
	}
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: marshal checkpoint: %w", err)
	}
	data = append(data, '\n')
	if err := wal.WriteFileAtomic(ckptFile(dir, cp.Token), data, wal.Hooks{}); err != nil {
		return fmt.Errorf("shard: write checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint returns the token's checkpoint under dir, or (nil, nil)
// when there is none.
func loadCheckpoint(dir, token string) (*checkpoint, error) {
	data, err := os.ReadFile(ckptFile(dir, token))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shard: read checkpoint: %w", err)
	}
	cp := &checkpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("shard: decode checkpoint: %w", err)
	}
	if cp.Token != token || cp.Round < 1 {
		return nil, fmt.Errorf("shard: checkpoint for %q is corrupt (token %q, round %d)", token, cp.Token, cp.Round)
	}
	return cp, nil
}

// ClearCheckpoint removes the token's checkpoint under dir (no error when
// there is none). A completed run clears its own; a caller retiring a
// token for good — a deleted session — clears what a cut-off run left.
func ClearCheckpoint(dir, token string) error {
	err := os.Remove(ckptFile(dir, token))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// checkpointed runs one fixpoint under cfg's checkpoint discipline: loop
// is handed the state to start from (a loaded checkpoint's, or a fresh one)
// and the after-round hook that saves; a completed run clears its
// checkpoint. Loading and saving are fail-soft — a checkpointing failure
// must not take down a healthy analysis, so it only logs.
func (cfg *Config) checkpointed(loop func(from core.RoundState, afterRound func(core.RoundState)) (*Outcome, error)) (*Outcome, error) {
	d := cfg.B.Net
	from := core.RoundState{Padding: make([]float64, d.NumNets())}
	dir := cfg.CheckpointDir
	if dir == "" {
		return loop(from, nil)
	}
	cp, err := loadCheckpoint(dir, cfg.Token)
	switch {
	case err != nil:
		cfg.Logf("shard: checkpoint load failed, starting fresh: %v", err)
	case cp != nil:
		for _, p := range cp.Padding {
			if id := d.FindNet(p.Net); id >= 0 {
				from.Padding[id] = p.Pad
			}
		}
		from.Round, from.Stalled, from.PrevGrowth = cp.Round, cp.Stalled, math.Inf(1)
		if cp.PrevGrowth != nil {
			from.PrevGrowth = *cp.PrevGrowth
		}
		cfg.Logf("shard: resuming after round %d (%d padded nets)", cp.Round, len(cp.Padding))
	}
	out, err := loop(from, func(st core.RoundState) {
		save := &checkpoint{
			Token:   cfg.Token,
			Round:   st.Round,
			Stalled: st.Stalled,
			SavedAt: time.Now().UTC().Format(time.RFC3339Nano),
		}
		for net, pad := range core.PaddingByName(d, st.Padding) {
			save.Padding = append(save.Padding, namedPad{net, pad})
		}
		slices.SortFunc(save.Padding, func(a, b namedPad) int { return strings.Compare(a.Net, b.Net) })
		if !math.IsInf(st.PrevGrowth, 1) {
			save.PrevGrowth = &st.PrevGrowth
		}
		if err := saveCheckpoint(dir, save); err != nil {
			cfg.Logf("shard: checkpoint save for round %d failed (continuing): %v", st.Round, err)
		}
	})
	if err != nil {
		return nil, err
	}
	out.Resumed = cp != nil
	if err := ClearCheckpoint(dir, cfg.Token); err != nil {
		cfg.Logf("shard: checkpoint clear failed: %v", err)
	}
	return out, nil
}
