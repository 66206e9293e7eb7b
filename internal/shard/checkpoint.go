package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// Checkpoint is the durable form of core.RoundState: everything needed to
// resume the noise–delay fixpoint after a restart. The analysis state
// itself is NOT saved — padding-seeded engine rebuilds are exactly
// equivalent to the incremental path (the core.Session rebuild contract),
// so the cumulative padding plus the divergence-watchdog state is the whole
// fixpoint.
type Checkpoint struct {
	// Token identifies the run (sessions use their name).
	Token string `json:"token"`
	// Round is the last fully completed round.
	Round int `json:"round"`
	// Padding is the cumulative per-net window padding after Round.
	Padding []PadEntry `json:"padding,omitempty"`
	// PrevGrowth is the round's largest per-net padding increase; nil
	// encodes the +Inf baseline, which JSON cannot carry.
	PrevGrowth *float64 `json:"prevGrowth,omitempty"`
	// Stalled counts consecutive non-contracting rounds so far.
	Stalled int `json:"stalled,omitempty"`
	// SavedAt is the wall-clock save time (RFC3339), informational only.
	SavedAt string `json:"savedAt,omitempty"`
}

// Checkpointer persists round state between rounds. A nil Checkpointer in
// Config disables persistence.
type Checkpointer interface {
	// Save durably records cp, replacing any previous checkpoint for its
	// token.
	Save(cp *Checkpoint) error
	// Load returns the checkpoint for token, or (nil, nil) when none
	// exists.
	Load(token string) (*Checkpoint, error)
	// Clear removes the checkpoint for token (no error when absent).
	Clear(token string) error
}

// FileCheckpointer stores one JSON checkpoint file per token under Dir,
// written with wal.WriteFileAtomic (temp file, fsync, rename, directory
// fsync), so a crash mid-save leaves the previous checkpoint intact and an
// acknowledged save survives power loss.
type FileCheckpointer struct {
	Dir string
}

// ckptFile maps a token to its file, keeping the name filesystem-safe.
func (f *FileCheckpointer) ckptFile(token string) string {
	safe := make([]rune, 0, len(token))
	for _, r := range token {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			safe = append(safe, r)
		default:
			safe = append(safe, '_')
		}
	}
	return filepath.Join(f.Dir, string(safe)+".ckpt.json")
}

// Save implements Checkpointer.
func (f *FileCheckpointer) Save(cp *Checkpoint) error {
	if err := os.MkdirAll(f.Dir, 0o755); err != nil {
		return fmt.Errorf("shard: checkpoint dir: %w", err)
	}
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: marshal checkpoint: %w", err)
	}
	data = append(data, '\n')
	if err := wal.WriteFileAtomic(f.ckptFile(cp.Token), data, wal.Hooks{}); err != nil {
		return fmt.Errorf("shard: write checkpoint: %w", err)
	}
	return nil
}

// Load implements Checkpointer.
func (f *FileCheckpointer) Load(token string) (*Checkpoint, error) {
	data, err := os.ReadFile(f.ckptFile(token))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shard: read checkpoint: %w", err)
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("shard: decode checkpoint: %w", err)
	}
	if cp.Token != token || cp.Round < 1 {
		return nil, fmt.Errorf("shard: checkpoint for %q is corrupt (token %q, round %d)", token, cp.Token, cp.Round)
	}
	return cp, nil
}

// Clear implements Checkpointer.
func (f *FileCheckpointer) Clear(token string) error {
	err := os.Remove(f.ckptFile(token))
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
	from := core.RoundState{Padding: make(map[string]float64)}
	c := cfg.Checkpointer
	if c == nil {
		return loop(from, nil)
	}
	cp, err := c.Load(cfg.Token)
	switch {
	case err != nil:
		cfg.Logf("shard: checkpoint load failed, starting fresh: %v", err)
	case cp != nil:
		from.Padding = padMap(cp.Padding)
		from.Round, from.Stalled, from.PrevGrowth = cp.Round, cp.Stalled, math.Inf(1)
		if cp.PrevGrowth != nil {
			from.PrevGrowth = *cp.PrevGrowth
		}
		cfg.Logf("shard: resuming after round %d (%d padded nets)", cp.Round, len(cp.Padding))
	}
	out, err := loop(from, func(st core.RoundState) {
		save := &Checkpoint{
			Token:   cfg.Token,
			Round:   st.Round,
			Padding: padEntries(st.Padding),
			Stalled: st.Stalled,
			SavedAt: time.Now().UTC().Format(time.RFC3339Nano),
		}
		if !math.IsInf(st.PrevGrowth, 1) {
			save.PrevGrowth = &st.PrevGrowth
		}
		if err := c.Save(save); err != nil {
			cfg.Logf("shard: checkpoint save for round %d failed (continuing): %v", st.Round, err)
		}
	})
	if err != nil {
		return nil, err
	}
	out.Resumed = cp != nil
	if err := c.Clear(cfg.Token); err != nil {
		cfg.Logf("shard: checkpoint clear failed: %v", err)
	}
	return out, nil
}
