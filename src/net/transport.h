#ifndef SURFER_NET_TRANSPORT_H_
#define SURFER_NET_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "net/control.h"
#include "net/frame.h"
#include "net/socket.h"
#include "runtime/wire_batch.h"

namespace surfer {
namespace net {

/// The two halves of the NTP-style clock-offset session run on every mesh
/// link during the rendezvous. The client sends `pings` kPing frames; the
/// server answers each with a kPong echoing the ping's send/recv stamps
/// (t1, t2); the pong's own header stamp and receive time supply t3 and t4.
/// The client keeps the minimum-round-trip sample — per NTP, the one least
/// contaminated by queueing — computes
///   offset = ((t2 - t1) + (t3 - t4)) / 2,  uncertainty = round_trip / 2,
/// and closes the session with kClockOffset so both ends agree. Both return
/// the offset as (peer clock - local clock); the server negates the client's
/// estimate. Exposed as free functions so a fork-free test can drive both
/// halves over a socketpair.
Result<ClockOffsetMsg> RunClockSyncClient(Socket& sock, uint32_t pings);
Result<ClockOffsetMsg> RunClockSyncServer(Socket& sock);

/// Installs the worker-process signal disposition: a SIGTERM handler that
/// only sets a flag (no SA_RESTART, so a blocking control read returns
/// EINTR and the worker can flush and exit gracefully), and SIGPIPE ignored.
/// Called by every worker right after fork, before any socket traffic.
void InstallWorkerSignalHandlers();

/// The flag InstallWorkerSignalHandlers' SIGTERM handler sets. Passed as the
/// `interrupt` argument of blocking control-plane reads.
const std::atomic<bool>* SigtermFlag();

/// A worker process's view of the cluster: one AF_UNIX control socket to the
/// coordinator plus a full mesh of TCP connections to every other worker.
///
/// Threading model: the worker's main thread is the *sole writer* on every
/// socket (except kDataAck frames, which the receiving thread of a peer link
/// writes back under that link's write mutex) and the sole consumer of the
/// mailbox. One receiver thread per inbound mesh link reads frames as fast
/// as they arrive and pushes the decoded batches/updates into the unbounded
/// mailbox — receivers never block on the main thread, which is what makes
/// the round protocol deadlock-free (a peer can always complete its sends).
/// Receiver threads run with SIGTERM blocked; only the main thread takes the
/// interrupt.
class WorkerTransport {
 public:
  WorkerTransport(uint32_t proc, Socket control);

  WorkerTransport(const WorkerTransport&) = delete;
  WorkerTransport& operator=(const WorkerTransport&) = delete;

  /// Runs the worker side of the setup protocol: binds an ephemeral mesh
  /// listener, sends kHello{proc, port}, reads kPeers and kPlacement,
  /// builds the mesh (dial every lower-index peer, accept every higher one),
  /// spawns the receiver threads, and reports kReady. On success
  /// `placement_out` holds the decoded placement and the transport knows the
  /// process count and whether data frames are acknowledged
  /// (placement.fault_tolerant).
  Status Handshake(PlacementMsg* placement_out);

  // ----------------------------------------------------------- control plane

  /// Blocking read of the next coordinator frame; returns kUnavailable when
  /// a SIGTERM interrupted the read or the coordinator closed the socket.
  Result<Frame> ReadControl();

  /// Installs a callback invoked from ReadControl's poll loop every time the
  /// 100 ms poll times out with no control traffic. The worker uses it to
  /// tick its heartbeat clock while idle between rounds; it runs on the main
  /// thread, which is the sole writer on the control socket.
  void SetIdleTick(std::function<void()> tick) { idle_tick_ = std::move(tick); }

  Status SendControl(FrameType type, const std::vector<uint8_t>& payload);
  Status SendControl(FrameType type);

  // -------------------------------------------------------------- data mesh

  /// Sends one frame to a peer process. A send to a peer already marked dead
  /// is silently dropped (its partitions are being recovered; the traffic is
  /// moot), and a send that fails because the peer just died marks it dead
  /// and also reports success — peer death is surfaced through liveness, not
  /// through send errors.
  Status SendPeer(uint32_t peer, FrameType type,
                  const std::vector<uint8_t>& payload);

  /// Sends kEos{seq} to every live peer: "I will send no more data frames
  /// for round seq".
  Status BroadcastEos(uint32_t seq);

  // ----------------------------------------------------------------- mailbox

  /// Pops the next decoded wire batch, FIFO across its source link.
  bool TryPopData(runtime::WireBatch* out);

  /// Pops the next decoded state-replication update.
  bool TryPopUpdate(StateUpdateMsg* out);

  /// True when every peer is dead or has sent kEos for a round >= seq. Once
  /// true, every data frame of the round is already in the mailbox: a link
  /// is FIFO and its receiver pushes each data frame before it records the
  /// trailing kEos.
  bool RoundDrained(uint32_t seq);

  /// Blocks (bounded) until mailbox/ack/liveness state may have changed.
  void WaitActivity();

  /// Blocks until every kData/kStateUpdate frame this process sent has been
  /// acknowledged by its peer's receiver thread (or the peer died). No-op
  /// when the run is not fault-tolerant (no acks flow). The guarantee a
  /// dying process needs before closing its sockets: all of its output is in
  /// peer user space, beyond the reach of a close-triggered RST.
  Status WaitDataAcked();

  // ------------------------------------------------------------- accounting

  uint32_t proc() const { return proc_; }
  uint32_t num_procs() const { return num_procs_; }

  /// Bytes actually written to mesh sockets (frame headers included).
  uint64_t tcp_bytes_sent() const;
  /// Mesh frames written (data, state updates, EOS, acks).
  uint64_t tcp_frames_sent() const;
  /// Approximate mailbox depth (telemetry gauge).
  uint64_t ApproxMailboxDepth();
  /// Payload bytes pushed into the mailbox but not yet popped by the main
  /// thread (telemetry gauge: inbound queueing pressure).
  uint64_t InflightBytes();
  /// Raw (uncorrected) one-way latency of the most recent inbound data
  /// frame, from its header stamps (telemetry gauge).
  uint64_t LastRecvLatencyUs() const {
    return last_recv_latency_us_.load(std::memory_order_relaxed);
  }

  /// Moves out the per-(round, link) latency records the receiver threads
  /// flushed at each kEos. `iteration`/`kind` are zero; the worker patches
  /// them from its own seq -> round map.
  std::vector<RoundLinkStat> DrainLinkStats();

  /// Clock-offset table from the handshake ping exchange, indexed by
  /// process ([self] == 0 and == proc()). Empty vectors before Handshake.
  bool clock_synced() const { return clock_synced_; }
  std::vector<int64_t> ClockOffsets() const;
  std::vector<uint64_t> ClockUncertainties() const;

  /// Shuts down every socket (forces FIN). Called immediately before _exit;
  /// receiver threads are reaped by process exit, never joined.
  void CloseAll();

 private:
  /// The receiver thread's accumulator for the current round's inbound
  /// frames on one link; flushed into a RoundLinkStat by the trailing kEos.
  struct LinkWindow {
    uint32_t frames = 0;
    uint64_t bytes = 0;
    int64_t latency_sum_us = 0;
    int64_t latency_max_us = 0;
    uint64_t first_send_us = 0;
    uint64_t last_recv_us = 0;
  };

  struct Peer {
    Socket sock;
    std::thread receiver;
    std::mutex write_mu;    ///< main-thread sends vs. receiver-thread acks
    bool dead = false;      ///< guarded by mu_
    uint32_t eos_seq = 0;   ///< highest kEos seq seen; guarded by mu_
    uint64_t acked = 0;     ///< acks received; guarded by mu_
    uint64_t sent_acked = 0;  ///< ack-eligible frames sent; guarded by mu_
    std::atomic<uint64_t> frames_sent{0};
    LinkWindow window;      ///< guarded by mu_
    /// Handshake clock-sync result: peer clock minus local clock. Written
    /// single-threaded during Handshake, read-only afterwards.
    int64_t clock_offset_us = 0;
    uint64_t clock_uncertainty_us = 0;
  };

  void ReceiverLoop(uint32_t peer_index);
  void MarkDead(uint32_t peer_index);

  const uint32_t proc_;
  uint32_t num_procs_ = 1;
  bool ack_data_ = false;
  bool clock_synced_ = false;
  Socket control_;
  Listener listener_;
  std::vector<std::unique_ptr<Peer>> peers_;  ///< index = process; self unused
  std::function<void()> idle_tick_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<runtime::WireBatch> data_;
  std::deque<StateUpdateMsg> updates_;
  uint64_t inflight_bytes_ = 0;               ///< guarded by mu_
  std::vector<RoundLinkStat> link_stats_;     ///< guarded by mu_
  std::atomic<uint64_t> last_recv_latency_us_{0};
};

}  // namespace net
}  // namespace surfer

#endif  // SURFER_NET_TRANSPORT_H_
