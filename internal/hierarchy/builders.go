package hierarchy

import (
	"ldis/internal/cache"
	"ldis/internal/compress"
	"ldis/internal/distill"
	"ldis/internal/values"
)

// Traditional builds an L1D + traditional L2 system.
func Traditional(cfg cache.Config) (*System, *cache.Cache) {
	c := cache.New(cfg)
	return NewSystem(NewTradL2(c)), c
}

// Distill builds an L1D + distill-cache system.
func Distill(cfg distill.Config) (*System, *distill.Cache) {
	c := distill.New(cfg)
	return NewSystem(NewDistillL2(c)), c
}

// FAC builds a distill-cache system whose WOC installs use
// footprint-aware compression over the given value model (Section 8.2).
func FAC(cfg distill.Config, vals *values.Model) (*System, *distill.Cache) {
	cfg.Slots = compress.FACSlots(vals)
	return Distill(cfg)
}
