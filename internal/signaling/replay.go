package signaling

import (
	"encoding/json"
	"fmt"

	"fafnet/internal/core"
	"fafnet/internal/obs"
	"fafnet/internal/scenario"
	"fafnet/internal/units"
)

// ReplayStats summarizes one audit-log replay.
type ReplayStats struct {
	// Admits counts admitted connections re-committed to the controller.
	Admits int
	// Releases counts releases re-applied.
	Releases int
	// Skipped counts records that change no controller state and were not
	// replayed: previews, rejected admits, errored operations, and releases
	// that found nothing.
	Skipped int
}

// Replay rebuilds controller state from an audit log, in record order. It is
// the recovery half of the audit log's design: because state-changing records
// are written inside the controller's commit critical section, the file order
// is the commit order, and re-running those records against a fresh
// controller over the same topology and options must reproduce every decision
// (verdict exactly, allocations to units.AlmostEq).
//
// Replay therefore verifies as it goes: a replayed admit must be admitted
// again with the same HS/HR allocations (within the engine's float
// tolerance), and a replayed release must find its connection. Any
// divergence aborts with an error naming the record — it means the log and
// the configuration disagree (wrong topology or β, an edited log, or a
// truncated middle), and recovered state would be unsound.
//
// Records that changed no state are skipped: previews, rejected admits,
// errored operations, and releases that reported false.
func Replay(ctl *core.Controller, records []obs.AuditRecord) (ReplayStats, error) {
	var stats ReplayStats
	if ctl == nil {
		return stats, fmt.Errorf("signaling: replay requires a controller")
	}
	for i, rec := range records {
		if rec.Error != "" {
			stats.Skipped++
			mReplaySkipped.Inc()
			continue
		}
		switch Op(rec.Op) {
		case OpAdmit:
			if !rec.Admitted {
				stats.Skipped++
				mReplaySkipped.Inc()
				continue
			}
			if err := replayAdmit(ctl, i, rec); err != nil {
				return stats, err
			}
			stats.Admits++
			mReplayRecords.Inc()
		case OpRelease:
			if rec.Released == nil || !*rec.Released {
				stats.Skipped++
				mReplaySkipped.Inc()
				continue
			}
			if !ctl.Release(rec.ConnID) {
				return stats, fmt.Errorf("signaling: replay record %d: release %q found no connection; the log does not match the controller state", i+1, rec.ConnID)
			}
			stats.Releases++
			mReplayRecords.Inc()
		case OpPreview, OpPreviewBatch:
			stats.Skipped++
			mReplaySkipped.Inc()
		default:
			return stats, fmt.Errorf("signaling: replay record %d: unknown op %q", i+1, rec.Op)
		}
	}
	return stats, nil
}

// replayAdmit re-runs one admitted admission and checks the controller
// reproduces the logged decision.
func replayAdmit(ctl *core.Controller, i int, rec obs.AuditRecord) error {
	if !units.AlmostEq(rec.Beta, ctl.Options().Beta) {
		return fmt.Errorf("signaling: replay record %d: logged β=%v but controller has β=%v; recovery needs the original options", i+1, rec.Beta, ctl.Options().Beta)
	}
	if len(rec.Request) == 0 {
		return fmt.Errorf("signaling: replay record %d: admit %q carries no request body", i+1, rec.ConnID)
	}
	var req scenario.Request
	if err := json.Unmarshal(rec.Request, &req); err != nil {
		return fmt.Errorf("signaling: replay record %d: admit %q request body: %w", i+1, rec.ConnID, err)
	}
	spec, err := req.Spec()
	if err != nil {
		return fmt.Errorf("signaling: replay record %d: admit %q: %w", i+1, rec.ConnID, err)
	}
	dec, err := ctl.RequestAdmission(spec)
	if err != nil {
		return fmt.Errorf("signaling: replay record %d: admit %q failed on replay: %w", i+1, rec.ConnID, err)
	}
	if !dec.Admitted {
		return fmt.Errorf("signaling: replay record %d: admit %q was admitted originally but rejected on replay (%s); topology or options differ from the logged run", i+1, rec.ConnID, dec.Reason)
	}
	if !units.AlmostEq(dec.HS, rec.HSSeconds) || !units.AlmostEq(dec.HR, rec.HRSeconds) {
		return fmt.Errorf("signaling: replay record %d: admit %q allocations diverged: logged HS=%v HR=%v, replayed HS=%v HR=%v", i+1, rec.ConnID, rec.HSSeconds, rec.HRSeconds, dec.HS, dec.HR)
	}
	return nil
}
