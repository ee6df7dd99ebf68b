package serve

import (
	"fmt"
	"net/http"
	"sort"
)

// handleMetrics writes a Prometheus-style text exposition of the server's
// counters, the shared arena's hit/miss/eviction statistics, and one
// sim-time/wall-time gauge pair per open session — enough to see whether
// the daemon is keeping up (sim-time advancing faster than wall-time) and
// whether admissions are being rejected.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	sessions := s.Sessions()
	c := &s.counters
	a := s.ArenaStats()

	fmt.Fprintf(w, "# HELP sprinklerd_sessions_open Currently open simulation sessions.\n")
	fmt.Fprintf(w, "# TYPE sprinklerd_sessions_open gauge\n")
	fmt.Fprintf(w, "sprinklerd_sessions_open %d\n", len(sessions))

	counters := []struct {
		name, help string
		v          uint64
	}{
		{"sprinklerd_sessions_opened_total", "Sessions admitted.", c.SessionsOpened.Load()},
		{"sprinklerd_sessions_drained_total", "Sessions finished with a final Result.", c.SessionsDrained.Load()},
		{"sprinklerd_sessions_expired_total", "Sessions reclaimed by idle expiry.", c.SessionsExpired.Load()},
		{"sprinklerd_sessions_discarded_total", "Sessions dropped without a clean drain.", c.SessionsDiscarded.Load()},
		{"sprinklerd_requests_admitted_total", "API requests admitted to a session or open.", c.Admitted.Load()},
		{"sprinklerd_requests_rejected_sessions_total", "Opens rejected at the session cap (429).", c.RejectedSession.Load()},
		{"sprinklerd_requests_rejected_devices_total", "Opens rejected at the device budget (503).", c.RejectedDevice.Load()},
		{"sprinklerd_requests_rejected_backlog_total", "Submits rejected at the per-session backlog budget (429).", c.RejectedBacklog.Load()},
		{"sprinklerd_requests_rejected_busy_total", "Requests timed out waiting on a busy session (503).", c.RejectedBusy.Load()},
		{"sprinklerd_ios_submitted_total", "Simulated I/Os admitted across all sessions.", c.IOsSubmitted.Load()},
		{"sprinklerd_arena_device_hits_total", "Device checkouts served from the warm pool.", a.DeviceHits},
		{"sprinklerd_arena_device_misses_total", "Device checkouts that built a device.", a.DeviceMisses},
		{"sprinklerd_arena_device_evictions_total", "Pooled devices dropped at the arena bound.", a.DeviceEvictions},
	}
	for _, m := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", m.name, m.help, m.name, m.name, m.v)
	}

	sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID < sessions[j].ID })
	fmt.Fprintf(w, "# HELP sprinklerd_session_sim_time_ns Simulated time reached by the session.\n")
	fmt.Fprintf(w, "# TYPE sprinklerd_session_sim_time_ns gauge\n")
	for _, info := range sessions {
		fmt.Fprintf(w, "sprinklerd_session_sim_time_ns{session=%q} %d\n", info.ID, info.SimTimeNS)
	}
	fmt.Fprintf(w, "# HELP sprinklerd_session_wall_time_ns Wall-clock age of the session.\n")
	fmt.Fprintf(w, "# TYPE sprinklerd_session_wall_time_ns gauge\n")
	for _, info := range sessions {
		fmt.Fprintf(w, "sprinklerd_session_wall_time_ns{session=%q} %d\n", info.ID, info.WallNS)
	}
	fmt.Fprintf(w, "# HELP sprinklerd_session_backlog Submitted-but-uncompleted I/Os per session.\n")
	fmt.Fprintf(w, "# TYPE sprinklerd_session_backlog gauge\n")
	for _, info := range sessions {
		fmt.Fprintf(w, "sprinklerd_session_backlog{session=%q} %d\n", info.ID, info.Backlog)
	}

	faultGauges := []struct {
		name, help string
		v          func(SessionInfo) int64
	}{
		{"sprinklerd_session_fault_read_retries", "Read-retry ladder entries in the session's fault model.",
			func(i SessionInfo) int64 { return i.ReadRetries }},
		{"sprinklerd_session_fault_program_fails", "Program failures injected into the session.",
			func(i SessionInfo) int64 { return i.ProgramFails }},
		{"sprinklerd_session_fault_retired_blocks", "Blocks retired to the spare pool after erase failures.",
			func(i SessionInfo) int64 { return i.RetiredBlocks }},
		{"sprinklerd_session_fault_failed_ios", "Host I/Os failed unrecoverably by the fault model.",
			func(i SessionInfo) int64 { return i.FailedIOs }},
		{"sprinklerd_session_fault_degraded", "1 when the session's drive degraded to read-only mode.",
			func(i SessionInfo) int64 {
				if i.Degraded {
					return 1
				}
				return 0
			}},
	}
	for _, g := range faultGauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name)
		for _, info := range sessions {
			fmt.Fprintf(w, "%s{session=%q} %d\n", g.name, info.ID, g.v(info))
		}
	}
}
