// Network performance profiles for the simulated cluster.
//
// The model is LogGP-flavoured: a one-way message of s bytes posted at
// time t completes at the receiver at
//
//   arrival = nic_start + per_msg_nic + s / bandwidth + latency
//
// where nic_start is when the sender's NIC becomes free (FIFO byte
// serialization models link saturation with concurrent flows), and the
// sender/receiver CPUs additionally pay per-message software overheads
// and, on the eager path, a buffer-copy cost. Profiles are calibrated
// so the baseline (unencrypted) ping-pong and multi-pair curves have
// the shape the paper reports for its 10 GbE and 40 Gb IB QDR testbed.
#pragma once

#include <cstddef>
#include <string>

namespace emc::net {

struct NetworkProfile {
  std::string name;

  double latency = 0.0;         ///< one-way wire latency (s)
  double bandwidth = 1.0;       ///< wire bandwidth (bytes/s)
  double send_overhead = 0.0;   ///< per-message sender CPU cost (s)
  double recv_overhead = 0.0;   ///< per-message receiver CPU cost (s)
  double per_msg_nic = 0.0;     ///< NIC occupancy per message (s)
  double copy_bandwidth = 1.0;  ///< eager-path buffer copy speed (bytes/s)

  /// Messages larger than this use the rendezvous (RTS/CTS, zero-copy)
  /// protocol; smaller ones are sent eagerly.
  std::size_t eager_threshold = 0;

  /// Contention model: once more than `contention_threshold` transfers
  /// overlap on one NIC, per-message NIC cost is multiplied by
  /// `contention_msg_factor` and effective bandwidth by
  /// `contention_bw_factor`. threshold 0 disables the model.
  int contention_threshold = 0;
  double contention_msg_factor = 1.0;
  double contention_bw_factor = 1.0;
};

/// 10 Gbps Ethernet with a TCP/sockets MPI stack (paper's MPICH side).
[[nodiscard]] NetworkProfile ethernet_10g();

/// 40 Gbps InfiniBand QDR with an RDMA MPI stack (paper's MVAPICH side);
/// includes the >4-flow NIC contention the paper observes (Fig. 11).
[[nodiscard]] NetworkProfile infiniband_qdr_40g();

/// Intra-node shared-memory transport.
[[nodiscard]] NetworkProfile intra_node();

/// Looks up a profile by name ("eth", "ib"); throws on unknown names.
[[nodiscard]] NetworkProfile profile_by_name(const std::string& name);

}  // namespace emc::net
