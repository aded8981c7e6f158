package distill

import (
	"fmt"

	"ldis/internal/mem"
	"ldis/internal/mrc"
)

// CopyBackConfig parameterizes reuse-distance-gated clean copy-back
// (arXiv 2105.14442). A conventional exclusive-ish hierarchy drops a
// clean L1 victim that the L2 no longer holds; with copy-back enabled
// the distill cache instead asks a per-line reuse predictor — the
// existing Mattson/SHARDS stack from internal/mrc, fed with every L2
// demand access — whether the line is likely to return soon. Victims
// whose current stack distance fits MaxReuseBytes have their used
// words installed into the WOC (clean, footprint-sized), turning a
// would-be memory fetch into a WOC hit.
type CopyBackConfig struct {
	// MaxReuseBytes admits a victim iff its predicted line-grain stack
	// distance is at most this. Default: the cache's SizeBytes — "would
	// it still hit if the whole cache were one LRU stack".
	MaxReuseBytes int
	// SampleRate is the predictor's SHARDS spatial sampling rate in
	// (0, 1). Default 0.25. Victims outside the sample are cold
	// (never copied back) and counted as such.
	SampleRate float64
	// MaxSamples bounds the predictor's tracked lines (SHARDS
	// fixed-size mode). Default 8192.
	MaxSamples int
	// Seed perturbs the predictor's spatial hash.
	Seed uint64
}

func (c CopyBackConfig) withDefaults(cacheBytes int) CopyBackConfig {
	if c.MaxReuseBytes == 0 {
		c.MaxReuseBytes = cacheBytes
	}
	if c.SampleRate == 0 {
		c.SampleRate = 0.25
	}
	if c.MaxSamples == 0 {
		c.MaxSamples = 8192
	}
	return c
}

// Validate rejects impossible configurations; zero fields are defaults.
func (c CopyBackConfig) Validate() error {
	if c.MaxReuseBytes < 0 {
		return fmt.Errorf("copy-back: negative MaxReuseBytes %d", c.MaxReuseBytes)
	}
	if c.SampleRate < 0 || c.SampleRate >= 1 {
		return fmt.Errorf("copy-back: sample rate %g outside [0, 1)", c.SampleRate)
	}
	if c.MaxSamples < 0 {
		return fmt.Errorf("copy-back: negative MaxSamples %d", c.MaxSamples)
	}
	return nil
}

// copyBack is the runtime predictor: one SHARDS-sampled Mattson stack
// observing the cache's demand stream, queried read-only at L1
// clean-victim time. Global across sets — the reason CopyBack
// disqualifies Config.ShardExact.
type copyBack struct {
	eng      *mrc.Engine
	maxBytes float64
}

func newCopyBack(cfg CopyBackConfig, cacheBytes int) *copyBack {
	cfg = cfg.withDefaults(cacheBytes)
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	eng, err := mrc.New(mrc.Config{
		SampleRate: cfg.SampleRate,
		MaxSamples: cfg.MaxSamples,
		Seed:       cfg.Seed,
	})
	if err != nil {
		panic(fmt.Sprintf("copy-back: %v", err))
	}
	return &copyBack{
		eng:      eng,
		maxBytes: float64(cfg.MaxReuseBytes),
	}
}

// predict returns whether the predictor has information about the line
// (false = cold: unsampled, evicted from the sample, or never seen)
// and, if so, whether its current stack distance is within the
// admission window.
//
//ldis:noalloc
func (cb *copyBack) predict(la mem.LineAddr) (within, known bool) {
	d, ok := cb.eng.CurrentLineDistanceBytes(la)
	if !ok {
		return false, false
	}
	return d <= cb.maxBytes, true
}
