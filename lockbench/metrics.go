package main

import "fmt"

// e2eMetrics are printed by every untraced run, layerMetrics by every
// traced run; BENCHMARK.json lists the same names.
var e2eMetrics = []string{
	"setup_s",
	"grants_per_s",
	"acquire_p90_ms",
	"cpu_us_per_grant",
	"allocs_per_grant",
}

var layerMetrics = []string{
	"core.msgs_per_grant",
	"core.hops_per_grant",
	"core.deliver_ns",
	"core.deliver_allocs",
	"core.recovery_ms",
	"core.recoveries",
	"core.regenerations",
	"core.unavailable_ms",
	"transport.codec_encode_ns",
	"transport.codec_decode_ns",
	"transport.codec_allocs",
	"transport.tcp_link_us",
	"transport.client_frame_ns",
	"transport.client_frame_allocs",
	"transport.client_listener_us",
	"runtime.local_handoff_us",
	"lockservice.local_acquire_us",
	"lockservice.regrant_ratio",
	"lockservice.wait_p99_ms",
	"client.direct_acquire_p50_us",
	"client.direct_acquire_p99_us",
	"client.direct_allocs_per_grant",
	"gateway.forward_us",
	"gateway.allocs_per_grant",
	"gateway.shed_ratio",
	"simharness.ns_per_message",
	"simharness.speedup",
	"acquire.p50_ms",
	"acquire.p99_ms",
	"trace.overhead_pct",
	"trace.joined_pct",
	"trace.cycle_self_us",
	"trace.acquire_pre_grant_us",
	"trace.acquire_post_grant_us",
	"trace.release_us",
	"trace.stall_p999_ms",
	"trace.stall_pre_grant_pct",
}

// checkNames reports a metric set that differs from want.
func checkNames(got map[string]metric, want []string) error {
	for _, n := range want {
		if _, ok := got[n]; !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("measured %d metrics, want %d", len(got), len(want))
	}
	return nil
}
