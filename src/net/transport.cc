#include "net/transport.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <poll.h>
#include <string>
#include <sys/socket.h>
#include <utility>

namespace surfer {
namespace net {

namespace {

std::atomic<bool> g_sigterm{false};

void SigtermHandler(int) { g_sigterm.store(true, std::memory_order_relaxed); }

}  // namespace

void InstallWorkerSignalHandlers() {
  g_sigterm.store(false, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = SigtermHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked reads must surface EINTR
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

const std::atomic<bool>* SigtermFlag() { return &g_sigterm; }

Result<ClockOffsetMsg> RunClockSyncClient(Socket& sock, uint32_t pings) {
  ClockOffsetMsg best;
  int64_t best_delta = -1;
  for (uint32_t k = 0; k < pings; ++k) {
    ClockPingMsg ping;
    ping.seq = k;
    SURFER_RETURN_IF_ERROR(WriteFrame(sock, FrameType::kPing, Encode(ping)));
    SURFER_ASSIGN_OR_RETURN(Frame frame, ReadFrame(sock));
    if (frame.type != FrameType::kPong) {
      return Status::Internal("expected kPong during clock sync");
    }
    SURFER_ASSIGN_OR_RETURN(ClockPongMsg pong,
                            Decode<ClockPongMsg>(frame.payload));
    if (pong.seq != k) {
      return Status::Internal("clock-sync pong out of sequence");
    }
    const int64_t t1 = static_cast<int64_t>(pong.t1);
    const int64_t t2 = static_cast<int64_t>(pong.t2);
    const int64_t t3 = static_cast<int64_t>(frame.send_unix_us);
    const int64_t t4 = static_cast<int64_t>(frame.recv_unix_us);
    const int64_t delta = (t4 - t1) - (t3 - t2);  // round trip minus server hold
    if (best_delta < 0 || delta < best_delta) {
      best_delta = delta;
      best.offset_us = ((t2 - t1) + (t3 - t4)) / 2;
      best.uncertainty_us = static_cast<uint64_t>(delta < 0 ? 0 : delta) / 2;
    }
  }
  SURFER_RETURN_IF_ERROR(
      WriteFrame(sock, FrameType::kClockOffset, Encode(best)));
  return best;
}

Result<ClockOffsetMsg> RunClockSyncServer(Socket& sock) {
  for (;;) {
    SURFER_ASSIGN_OR_RETURN(Frame frame, ReadFrame(sock));
    if (frame.type == FrameType::kPing) {
      SURFER_ASSIGN_OR_RETURN(ClockPingMsg ping,
                              Decode<ClockPingMsg>(frame.payload));
      ClockPongMsg pong;
      pong.seq = ping.seq;
      pong.t1 = frame.send_unix_us;
      pong.t2 = frame.recv_unix_us;
      SURFER_RETURN_IF_ERROR(WriteFrame(sock, FrameType::kPong, Encode(pong)));
      continue;
    }
    if (frame.type == FrameType::kClockOffset) {
      SURFER_ASSIGN_OR_RETURN(ClockOffsetMsg msg,
                              Decode<ClockOffsetMsg>(frame.payload));
      // The client estimated (server - client); this end wants (peer - local).
      msg.offset_us = -msg.offset_us;
      return msg;
    }
    return Status::Internal("unexpected frame during clock sync");
  }
}

WorkerTransport::WorkerTransport(uint32_t proc, Socket control)
    : proc_(proc), control_(std::move(control)) {}

Status WorkerTransport::Handshake(PlacementMsg* placement_out) {
  SURFER_ASSIGN_OR_RETURN(listener_, Listener::Bind());
  HelloMsg hello;
  hello.proc = proc_;
  hello.mesh_port = listener_.port();
  SURFER_RETURN_IF_ERROR(
      WriteFrame(control_, FrameType::kHello, Encode(hello)));

  SURFER_ASSIGN_OR_RETURN(Frame peers_frame, ReadFrame(control_));
  if (peers_frame.type != FrameType::kPeers) {
    return Status::Internal("expected kPeers during handshake");
  }
  SURFER_ASSIGN_OR_RETURN(PeersMsg peers,
                          Decode<PeersMsg>(peers_frame.payload));

  SURFER_ASSIGN_OR_RETURN(Frame placement_frame, ReadFrame(control_));
  if (placement_frame.type != FrameType::kPlacement) {
    return Status::Internal("expected kPlacement during handshake");
  }
  SURFER_ASSIGN_OR_RETURN(*placement_out,
                          Decode<PlacementMsg>(placement_frame.payload));
  ack_data_ = placement_out->fault_tolerant != 0;

  num_procs_ = static_cast<uint32_t>(peers.ports.size());
  peers_.clear();
  for (uint32_t i = 0; i < num_procs_; ++i) {
    peers_.push_back(std::make_unique<Peer>());
  }

  // Rendezvous: every worker's listener existed before its kHello, and the
  // coordinator broadcast kPeers only after collecting every kHello — so
  // dialing any peer's port now cannot race its bind. Process i dials every
  // j < i and accepts every j > i: exactly one TCP connection per unordered
  // pair.
  for (uint32_t j = 0; j < proc_; ++j) {
    SURFER_ASSIGN_OR_RETURN(Socket sock, ConnectLocal(peers.ports[j]));
    SeqMsg id;
    id.src_proc = proc_;
    SURFER_RETURN_IF_ERROR(WriteFrame(sock, FrameType::kMeshHello, Encode(id)));
    peers_[j]->sock = std::move(sock);
  }
  for (uint32_t j = proc_ + 1; j < num_procs_; ++j) {
    SURFER_ASSIGN_OR_RETURN(Socket sock, listener_.Accept());
    SURFER_ASSIGN_OR_RETURN(Frame frame, ReadFrame(sock));
    if (frame.type != FrameType::kMeshHello) {
      return Status::Internal("expected kMeshHello on mesh accept");
    }
    SURFER_ASSIGN_OR_RETURN(SeqMsg id, Decode<SeqMsg>(frame.payload));
    if (id.src_proc >= num_procs_ || id.src_proc <= proc_ ||
        peers_[id.src_proc]->sock.valid()) {
      return Status::Internal("mesh hello from unexpected process " +
                              std::to_string(id.src_proc));
    }
    peers_[id.src_proc]->sock = std::move(sock);
  }
  listener_.Close();

  // Clock-offset estimation while the mesh is still quiet and the main
  // thread owns every socket. Sessions run in a fixed pairwise order — for
  // each link the lower-index process is the client, and every process
  // walks its links in index order (serve j < proc, then dial j > proc) —
  // so no two sessions can wait on each other.
  if (placement_out->clock_sync_pings > 0) {
    for (uint32_t j = 0; j < num_procs_; ++j) {
      if (j == proc_) {
        continue;
      }
      Peer& p = *peers_[j];
      Result<ClockOffsetMsg> offset =
          j < proc_ ? RunClockSyncServer(p.sock)
                    : RunClockSyncClient(p.sock,
                                         placement_out->clock_sync_pings);
      SURFER_RETURN_IF_ERROR(offset.status());
      p.clock_offset_us = offset->offset_us;
      p.clock_uncertainty_us = offset->uncertainty_us;
    }
    clock_synced_ = true;
  }

  // Receiver threads inherit the spawn-time signal mask; block SIGTERM
  // around the spawn so only the main thread ever takes the interrupt.
  sigset_t block, old;
  sigemptyset(&block);
  sigaddset(&block, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &block, &old);
  for (uint32_t j = 0; j < num_procs_; ++j) {
    if (j == proc_) {
      continue;
    }
    peers_[j]->receiver = std::thread([this, j] { ReceiverLoop(j); });
    peers_[j]->receiver.detach();
  }
  pthread_sigmask(SIG_SETMASK, &old, nullptr);

  return WriteFrame(control_, FrameType::kReady);
}

Result<Frame> WorkerTransport::ReadControl() {
  // Poll-then-read instead of relying on EINTR alone: a SIGTERM that lands
  // between the flag check and the read syscall would otherwise leave the
  // worker blocked forever with the flag already set.
  for (;;) {
    if (SigtermFlag()->load(std::memory_order_relaxed)) {
      return Status::Unavailable("control read interrupted by SIGTERM");
    }
    pollfd fd{control_.fd(), POLLIN, 0};
    const int rc = ::poll(&fd, 1, 100);
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IOError("poll on control socket failed");
    }
    if (rc == 0) {
      if (idle_tick_) {
        idle_tick_();
      }
      continue;
    }
    return ReadFrame(control_, SigtermFlag());
  }
}

Status WorkerTransport::SendControl(FrameType type,
                                    const std::vector<uint8_t>& payload) {
  return WriteFrame(control_, type, payload);
}

Status WorkerTransport::SendControl(FrameType type) {
  return WriteFrame(control_, type);
}

Status WorkerTransport::SendPeer(uint32_t peer, FrameType type,
                                 const std::vector<uint8_t>& payload) {
  Peer& p = *peers_[peer];
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (p.dead) {
      return Status::OK();
    }
  }
  Status st;
  {
    std::lock_guard<std::mutex> wlock(p.write_mu);
    st = WriteFrame(p.sock, type, payload);
  }
  if (!st.ok()) {
    // Peer death is reported through liveness (the receiver thread sees the
    // EOF too); the send itself succeeds-by-dropping.
    MarkDead(peer);
    return Status::OK();
  }
  p.frames_sent.fetch_add(1, std::memory_order_relaxed);
  if (ack_data_ &&
      (type == FrameType::kData || type == FrameType::kStateUpdate)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++p.sent_acked;
  }
  return Status::OK();
}

Status WorkerTransport::BroadcastEos(uint32_t seq) {
  SeqMsg msg;
  msg.seq = seq;
  msg.src_proc = proc_;
  const std::vector<uint8_t> payload = Encode(msg);
  for (uint32_t j = 0; j < num_procs_; ++j) {
    if (j == proc_) {
      continue;
    }
    SURFER_RETURN_IF_ERROR(SendPeer(j, FrameType::kEos, payload));
  }
  return Status::OK();
}

bool WorkerTransport::TryPopData(runtime::WireBatch* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (data_.empty()) {
    return false;
  }
  *out = std::move(data_.front());
  data_.pop_front();
  const uint64_t popped = out->payload.size();
  inflight_bytes_ -= popped < inflight_bytes_ ? popped : inflight_bytes_;
  return true;
}

bool WorkerTransport::TryPopUpdate(StateUpdateMsg* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (updates_.empty()) {
    return false;
  }
  *out = std::move(updates_.front());
  updates_.pop_front();
  const uint64_t popped = out->states.size() + out->virtuals.size();
  inflight_bytes_ -= popped < inflight_bytes_ ? popped : inflight_bytes_;
  return true;
}

bool WorkerTransport::RoundDrained(uint32_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t j = 0; j < num_procs_; ++j) {
    if (j == proc_) {
      continue;
    }
    const Peer& p = *peers_[j];
    if (!p.dead && p.eos_seq < seq) {
      return false;
    }
  }
  return true;
}

void WorkerTransport::WaitActivity() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::milliseconds(50));
}

Status WorkerTransport::WaitDataAcked() {
  if (!ack_data_) {
    return Status::OK();
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    for (uint32_t j = 0; j < num_procs_; ++j) {
      if (j == proc_) {
        continue;
      }
      const Peer& p = *peers_[j];
      if (!p.dead && p.acked < p.sent_acked) {
        return false;
      }
    }
    return true;
  });
  return Status::OK();
}

uint64_t WorkerTransport::tcp_bytes_sent() const {
  uint64_t total = 0;
  for (const auto& p : peers_) {
    if (p != nullptr && p->sock.valid()) {
      total += p->sock.bytes_written();
    }
  }
  return total;
}

uint64_t WorkerTransport::tcp_frames_sent() const {
  uint64_t total = 0;
  for (const auto& p : peers_) {
    if (p != nullptr) {
      total += p->frames_sent.load(std::memory_order_relaxed);
    }
  }
  return total;
}

uint64_t WorkerTransport::ApproxMailboxDepth() {
  std::lock_guard<std::mutex> lock(mu_);
  return data_.size() + updates_.size();
}

uint64_t WorkerTransport::InflightBytes() {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_bytes_;
}

std::vector<RoundLinkStat> WorkerTransport::DrainLinkStats() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RoundLinkStat> out = std::move(link_stats_);
  link_stats_.clear();
  return out;
}

std::vector<int64_t> WorkerTransport::ClockOffsets() const {
  std::vector<int64_t> out(num_procs_, 0);
  for (uint32_t j = 0; j < num_procs_; ++j) {
    if (j != proc_ && peers_[j] != nullptr) {
      out[j] = peers_[j]->clock_offset_us;
    }
  }
  return out;
}

std::vector<uint64_t> WorkerTransport::ClockUncertainties() const {
  std::vector<uint64_t> out(num_procs_, 0);
  for (uint32_t j = 0; j < num_procs_; ++j) {
    if (j != proc_ && peers_[j] != nullptr) {
      out[j] = peers_[j]->clock_uncertainty_us;
    }
  }
  return out;
}

void WorkerTransport::CloseAll() {
  for (auto& p : peers_) {
    if (p != nullptr && p->sock.valid()) {
      ::shutdown(p->sock.fd(), SHUT_RDWR);
    }
  }
  if (control_.valid()) {
    ::shutdown(control_.fd(), SHUT_RDWR);
  }
}

void WorkerTransport::ReceiverLoop(uint32_t peer_index) {
  Peer& p = *peers_[peer_index];
  // Accumulates the current round's frame stamps into the link window. A
  // link is FIFO and kEos trails the round's last data frame, so flushing
  // the window at kEos attributes every frame to exactly one round.
  const auto observe = [&](const Frame& frame) {
    const int64_t latency = static_cast<int64_t>(frame.recv_unix_us) -
                            static_cast<int64_t>(frame.send_unix_us);
    p.window.frames += 1;
    p.window.bytes += frame.payload.size();
    p.window.latency_sum_us += latency;
    if (latency > p.window.latency_max_us) {
      p.window.latency_max_us = latency;
    }
    if (p.window.first_send_us == 0 ||
        frame.send_unix_us < p.window.first_send_us) {
      p.window.first_send_us = frame.send_unix_us;
    }
    if (frame.recv_unix_us > p.window.last_recv_us) {
      p.window.last_recv_us = frame.recv_unix_us;
    }
    const uint64_t clamped =
        latency > 0 ? static_cast<uint64_t>(latency) : 0;
    last_recv_latency_us_.store(clamped, std::memory_order_relaxed);
  };
  for (;;) {
    Result<Frame> frame = ReadFrame(p.sock);
    if (!frame.ok()) {
      MarkDead(peer_index);
      return;
    }
    switch (frame->type) {
      case FrameType::kData: {
        Result<runtime::WireBatch> batch = DecodeWireBatch(frame->payload);
        if (!batch.ok()) {
          MarkDead(peer_index);
          return;
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          observe(*frame);
          inflight_bytes_ += batch->payload.size();
          data_.push_back(std::move(*batch));
        }
        cv_.notify_all();
        if (ack_data_) {
          std::lock_guard<std::mutex> wlock(p.write_mu);
          (void)WriteFrame(p.sock, FrameType::kDataAck);
        }
        break;
      }
      case FrameType::kStateUpdate: {
        Result<StateUpdateMsg> update = Decode<StateUpdateMsg>(frame->payload);
        if (!update.ok()) {
          MarkDead(peer_index);
          return;
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          observe(*frame);
          inflight_bytes_ += update->states.size() + update->virtuals.size();
          updates_.push_back(std::move(*update));
        }
        cv_.notify_all();
        if (ack_data_) {
          std::lock_guard<std::mutex> wlock(p.write_mu);
          (void)WriteFrame(p.sock, FrameType::kDataAck);
        }
        break;
      }
      case FrameType::kEos: {
        Result<SeqMsg> eos = Decode<SeqMsg>(frame->payload);
        if (!eos.ok()) {
          MarkDead(peer_index);
          return;
        }
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (eos->seq > p.eos_seq) {
            p.eos_seq = eos->seq;
          }
          if (p.window.frames > 0) {
            RoundLinkStat stat;
            stat.seq = eos->seq;
            stat.from_proc = peer_index;
            stat.frames = p.window.frames;
            stat.bytes = p.window.bytes;
            stat.latency_sum_us = p.window.latency_sum_us;
            stat.latency_max_us = p.window.latency_max_us;
            stat.first_send_us = p.window.first_send_us;
            stat.last_recv_us = p.window.last_recv_us;
            link_stats_.push_back(stat);
            p.window = LinkWindow{};
          }
        }
        cv_.notify_all();
        break;
      }
      case FrameType::kDataAck: {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++p.acked;
        }
        cv_.notify_all();
        break;
      }
      default:
        break;  // unknown mesh frame: ignore (forward compatibility)
    }
  }
}

void WorkerTransport::MarkDead(uint32_t peer_index) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    peers_[peer_index]->dead = true;
  }
  cv_.notify_all();
}

}  // namespace net
}  // namespace surfer
