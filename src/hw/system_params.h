// Central calibration table for the simulated substrate.
//
// Every latency/bandwidth/cost constant the simulation uses lives here so
// that the calibration is documented in one place, the comments below
// (docs/BENCHMARKS.md lists the paper claims it feeds and their gates).
// A scenario can override only a few of them: its `cluster` object picks a
// `preset` and may set `host_jitter_frac`, `hbm_capacity_mib` and
// `host_dram_capacity_mib` (scenario/scenario.h); the rest come from the
// preset unless a scenario family sets them in code. Making every field
// settable by name is ROADMAP item 1. Values are chosen to be
// representative of the paper's hardware: TPUv3-class accelerators, PCIe
// Gen3 hosts, and a DCN whose latency is an order of magnitude above PCIe
// (paper §2: "dispatch latency involves communication over DCN, typically
// an order of magnitude slower than PCIe").
#pragma once

#include <cstdint>

#include "common/units.h"
#include "net/collective_model.h"
#include "net/dcn.h"
#include "net/topology.h"

namespace pw::hw {

struct SystemParams {
  // --- PCIe (host <-> local device) ---
  Duration pcie_latency = Duration::Micros(2);
  double pcie_bandwidth = 16e9;  // bytes/sec

  // --- ICI (island-internal accelerator interconnect) ---
  net::CollectiveParams ici;  // defaults: 1us hop, 100 GB/s, 2us launch
  Duration ici_ptp_latency = Duration::Micros(1.5);
  double ici_ptp_bandwidth = 100e9;
  // Opt-in flow-level ICI: each island's devices form a 2D/3D torus and
  // both collectives and point-to-point transfers are priced on its links
  // (docs/NETWORK.md). Off by default — the analytic model above applies
  // and runs are bit-identical to earlier builds.
  net::IciFlowParams ici_flow;

  // --- DCN (host <-> host, cross-island) ---
  // Flow-level Clos mode lives in dcn.clos (net::DcnClosParams), same
  // defaults-off contract as ici_flow.
  net::DcnParams dcn;  // defaults: 20us latency, 12.5 GB/s NIC

  // --- Host-side CPU costs ---
  // Multi-controller kernel enqueue (prep + PCIe doorbell) per computation.
  Duration host_kernel_dispatch_cost = Duration::Micros(4);
  // Pathways executor host-side prep per node shard: input buffer
  // allocation, address exchange, launch descriptor construction.
  Duration executor_prep_cost = Duration::Micros(20);
  // Coordinator/scheduler cost to emit one dispatch message to one device
  // executor. This single constant produces Figure 6's convergence points:
  // 128 devices x 17us = 2.2ms, 2048 devices x 17us = 34.8ms.
  Duration coordinator_msg_cost = Duration::Micros(17);
  // Client-side cost to construct + issue one program RPC.
  Duration client_rpc_cost = Duration::Micros(30);
  // Gang-scheduler decision cost per program dispatch.
  Duration scheduler_decision_cost = Duration::Micros(5);
  // Interpreter overhead per user-level call in multi-controller frameworks
  // (the "transitions to Python for every computation" cost, §5.1).
  Duration python_call_overhead = Duration::Micros(800);
  // Multiplicative jitter applied to host-side work (exponential tail);
  // creates the straggler effect that degrades lock-step SPMD at scale.
  double host_jitter_frac = 0.05;

  // --- Device ---
  double device_flops = 61.5e12;       // peak per-core (TPUv3-class, bf16)
  double hbm_bandwidth = 700e9;        // bytes/sec
  Bytes hbm_capacity = GiB(16);
  Duration kernel_launch_overhead = Duration::Micros(3);

  // --- Host DRAM (spill target for cold device buffers, docs/MEMORY.md) ---
  Bytes host_dram_capacity = GiB(64);

  std::uint64_t seed = 42;

  // TPU-pod-like defaults (used by configs A/B/C).
  static SystemParams TpuDefault() { return SystemParams{}; }

  // GPU-VM cluster for the Ray baseline (paper: p3.2xlarge, 1xV100, hosts
  // connected only via DCN; no fast inter-host interconnect).
  static SystemParams GpuVmDefault() {
    SystemParams p;
    p.pcie_latency = Duration::Micros(5);
    p.pcie_bandwidth = 12e9;
    p.device_flops = 15.7e12;  // V100 fp32-ish
    p.hbm_capacity = GiB(16);
    p.dcn.latency = Duration::Micros(25);
    p.dcn.nic_bandwidth = 1.25e9;  // 10 Gb/s VM NIC
    // Cross-host collectives ride the DCN: flat NCCL-style ring.
    p.ici.hop_latency = Duration::Micros(25);
    p.ici.link_bandwidth = 1.25e9;
    p.ici.launch_overhead = Duration::Micros(10);
    p.ici.topology = net::LatencyTopology::kRing;
    return p;
  }
};

}  // namespace pw::hw
