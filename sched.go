package laps

import "laps/internal/sched"

// NewAFSScheduler returns Dittmann's Arbitrary Flow Shift baseline.
func NewAFSScheduler() CoreScheduler { return &sched.AFS{} }

// NewHashScheduler returns a static CRC16 hash scheduler (no migration).
func NewHashScheduler() CoreScheduler { return sched.HashOnly{} }

// NewOracleScheduler returns Shi et al.'s exact per-flow-statistics
// top-k migrator.
func NewOracleScheduler(k int) CoreScheduler { return &sched.TopKOracle{K: k} }
