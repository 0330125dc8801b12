// Wire-framing contract tests over real socketpairs: magic/version
// validation, torn frames, mid-frame EOF, partial reads under a trickling
// writer, and the control-message codecs the distributed engine rides on.

#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/control.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/transport.h"

namespace surfer {
namespace net {
namespace {

std::pair<Socket, Socket> MustPair() {
  auto pair = Socket::Pair();
  EXPECT_TRUE(pair.ok()) << pair.status().ToString();
  return std::move(pair).value();
}

std::vector<uint8_t> Bytes(std::initializer_list<int> values) {
  std::vector<uint8_t> out;
  for (int v : values) {
    out.push_back(static_cast<uint8_t>(v));
  }
  return out;
}

TEST(NetFrameTest, RoundTripsTypedPayloads) {
  auto [a, b] = MustPair();
  const std::vector<uint8_t> payload = Bytes({1, 2, 3, 4, 5});
  ASSERT_TRUE(WriteFrame(a, FrameType::kData, payload).ok());
  ASSERT_TRUE(WriteFrame(a, FrameType::kEos).ok());

  auto first = ReadFrame(b);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->type, FrameType::kData);
  EXPECT_EQ(first->payload, payload);

  auto second = ReadFrame(b);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, FrameType::kEos);
  EXPECT_TRUE(second->payload.empty());
}

TEST(NetFrameTest, CleanEofBetweenFramesIsUnavailable) {
  auto [a, b] = MustPair();
  ASSERT_TRUE(WriteFrame(a, FrameType::kReady).ok());
  ASSERT_TRUE(ReadFrame(b).ok());
  a.Close();  // orderly peer exit
  auto eof = ReadFrame(b);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kUnavailable);
}

TEST(NetFrameTest, EofInsideHeaderIsTornFrame) {
  auto [a, b] = MustPair();
  FrameHeader header;
  header.type = static_cast<uint16_t>(FrameType::kData);
  header.payload_bytes = 0;
  // Half a header, then close: the stream died mid-frame.
  ASSERT_TRUE(a.WriteFull(&header, sizeof(header) / 2).ok());
  a.Close();
  auto torn = ReadFrame(b);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kCorruption);
}

TEST(NetFrameTest, EofInsidePayloadIsTornFrame) {
  auto [a, b] = MustPair();
  FrameHeader header;
  header.type = static_cast<uint16_t>(FrameType::kData);
  header.payload_bytes = 100;
  ASSERT_TRUE(a.WriteFull(&header, sizeof(header)).ok());
  const std::vector<uint8_t> partial(10, 0xAB);
  ASSERT_TRUE(a.WriteFull(partial.data(), partial.size()).ok());
  a.Close();
  auto torn = ReadFrame(b);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kCorruption);
}

TEST(NetFrameTest, MagicMismatchIsCorruption) {
  auto [a, b] = MustPair();
  FrameHeader header;
  header.magic = 0xDEADBEEF;
  header.type = static_cast<uint16_t>(FrameType::kData);
  ASSERT_TRUE(a.WriteFull(&header, sizeof(header)).ok());
  auto bad = ReadFrame(b);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
}

TEST(NetFrameTest, VersionMismatchIsNotSupported) {
  auto [a, b] = MustPair();
  FrameHeader header;
  header.version = kFrameVersion + 1;
  header.type = static_cast<uint16_t>(FrameType::kData);
  ASSERT_TRUE(a.WriteFull(&header, sizeof(header)).ok());
  auto bad = ReadFrame(b);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotSupported);
}

TEST(NetFrameTest, OversizedLengthFieldIsRejectedBeforeAllocation) {
  auto [a, b] = MustPair();
  FrameHeader header;
  header.type = static_cast<uint16_t>(FrameType::kData);
  header.payload_bytes = kMaxFramePayloadBytes + 1;
  ASSERT_TRUE(a.WriteFull(&header, sizeof(header)).ok());
  auto bad = ReadFrame(b);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
}

TEST(NetFrameTest, PartialWritesReassembleIntoOneFrame) {
  // A writer that trickles the frame one byte at a time forces the reader
  // through its short-read loop on every byte; the frame must reassemble
  // exactly.
  auto [a, b] = MustPair();
  std::vector<uint8_t> payload(4096);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31);
  }
  FrameHeader header;
  header.type = static_cast<uint16_t>(FrameType::kData);
  header.payload_bytes = payload.size();
  std::vector<uint8_t> stream(sizeof(header) + payload.size());
  std::memcpy(stream.data(), &header, sizeof(header));
  std::memcpy(stream.data() + sizeof(header), payload.data(), payload.size());

  std::thread writer([&a, &stream] {
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_TRUE(a.WriteFull(&stream[i], 1).ok());
    }
  });
  auto frame = ReadFrame(b);
  writer.join();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kData);
  EXPECT_EQ(frame->payload, payload);
}

TEST(NetFrameTest, WireBatchRoundTripsThroughAFrame) {
  runtime::WireBatch batch;
  batch.src_machine = 3;
  batch.dst_machine = 5;
  batch.num_segments = 2;
  batch.num_messages = 77;
  batch.priced_bytes = 1234;
  batch.payload = Bytes({9, 8, 7, 6, 5, 4});

  auto [a, b] = MustPair();
  ASSERT_TRUE(WriteFrame(a, FrameType::kData, EncodeWireBatch(batch)).ok());
  auto frame = ReadFrame(b);
  ASSERT_TRUE(frame.ok());
  auto decoded = DecodeWireBatch(frame->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->src_machine, batch.src_machine);
  EXPECT_EQ(decoded->dst_machine, batch.dst_machine);
  EXPECT_EQ(decoded->num_segments, batch.num_segments);
  EXPECT_EQ(decoded->num_messages, batch.num_messages);
  EXPECT_EQ(decoded->priced_bytes, batch.priced_bytes);
  EXPECT_EQ(decoded->payload, batch.payload);
}

TEST(NetFrameTest, TruncatedWireBatchPayloadIsCorruption) {
  runtime::WireBatch batch;
  batch.src_machine = 1;
  batch.dst_machine = 2;
  batch.payload = Bytes({1, 2, 3, 4});
  std::vector<uint8_t> encoded = EncodeWireBatch(batch);
  encoded.pop_back();  // inner length field now disagrees with reality
  auto decoded = DecodeWireBatch(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(NetControlTest, RoundMsgRoundTrips) {
  RoundMsg msg;
  msg.seq = 42;
  msg.iteration = 3;
  msg.kind = RoundKind::kResend;
  msg.recovery = 1;
  msg.alive = {1, 0, 1};
  msg.exec = {0, kInvalidMachine, 2};
  msg.route = {0, 2, 2};
  msg.reexec = {kInvalidMachine, kInvalidMachine, 1};
  auto decoded = Decode<RoundMsg>(Encode(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->seq, msg.seq);
  EXPECT_EQ(decoded->iteration, msg.iteration);
  EXPECT_EQ(decoded->kind, msg.kind);
  EXPECT_EQ(decoded->recovery, msg.recovery);
  EXPECT_EQ(decoded->alive, msg.alive);
  EXPECT_EQ(decoded->exec, msg.exec);
  EXPECT_EQ(decoded->route, msg.route);
  EXPECT_EQ(decoded->reexec, msg.reexec);
}

/// A well-formed round over 3 partitions and 3 machines, sent through the
/// codec as a coordinator would send it.
RoundMsg WellFormedRound(RoundKind kind) {
  RoundMsg msg;
  msg.seq = 7;
  msg.kind = kind;
  msg.alive = {1, 1, 1};
  msg.exec = {0, 1, kInvalidMachine};
  msg.route = {0, 1, 2};
  msg.reexec = {kInvalidMachine, kInvalidMachine, kInvalidMachine};
  return msg;
}

Status DecodeAndValidate(const RoundMsg& msg) {
  auto decoded = Decode<RoundMsg>(Encode(msg));
  if (!decoded.ok()) {
    return decoded.status();
  }
  return ValidateRound(*decoded, /*num_partitions=*/3, /*num_machines=*/3,
                       /*iterations=*/4);
}

TEST(NetControlTest, RoundWithShortExecIsCorruption) {
  RoundMsg msg = WellFormedRound(RoundKind::kCombine);
  msg.exec.pop_back();
  const Status status = DecodeAndValidate(msg);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST(NetControlTest, RoundRoutingOutOfRangeIsCorruption) {
  RoundMsg msg = WellFormedRound(RoundKind::kTransfer);
  msg.route[1] = 3;  // one past the last machine
  const Status status = DecodeAndValidate(msg);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  // A transfer round must route every partition somewhere.
  msg.route[1] = kInvalidMachine;
  EXPECT_EQ(DecodeAndValidate(msg).code(), StatusCode::kCorruption);
}

TEST(NetControlTest, RoundOfUnknownKindIsCorruption) {
  RoundMsg msg = WellFormedRound(RoundKind::kTransfer);
  msg.kind = static_cast<RoundKind>(9);
  const Status status = DecodeAndValidate(msg);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST(NetControlTest, RoundOfIterationOutOfRangeIsCorruption) {
  RoundMsg msg = WellFormedRound(RoundKind::kCombine);
  msg.iteration = 3;  // the last of 4 iterations
  EXPECT_TRUE(DecodeAndValidate(msg).ok());
  msg.iteration = 4;
  const Status status = DecodeAndValidate(msg);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  msg.iteration = -1;
  EXPECT_EQ(DecodeAndValidate(msg).code(), StatusCode::kCorruption);
}

TEST(NetControlTest, ResendRoundWithUnroutedPartitionsIsAccepted) {
  RoundMsg msg = WellFormedRound(RoundKind::kResend);
  msg.recovery = 1;
  msg.exec = {kInvalidMachine, 2, kInvalidMachine};
  msg.route = {kInvalidMachine, 2, kInvalidMachine};
  msg.reexec = {1, kInvalidMachine, kInvalidMachine};
  const Status status = DecodeAndValidate(msg);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(NetControlTest, WorkerStatsRoundTripWithLinkMatrix) {
  WorkerStatsMsg msg;
  msg.tasks_executed = 10;
  msg.tasks_reexecuted = 2;
  msg.messages_sent = 12345;
  msg.tcp_bytes_sent = 999;
  msg.resend_bytes = 7;
  msg.replication_bytes = 13;
  msg.peak_rss_bytes = 1 << 20;
  msg.link_bytes = {0, 5, 10, 0};
  auto decoded = Decode<WorkerStatsMsg>(Encode(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->tasks_executed, msg.tasks_executed);
  EXPECT_EQ(decoded->tasks_reexecuted, msg.tasks_reexecuted);
  EXPECT_EQ(decoded->messages_sent, msg.messages_sent);
  EXPECT_EQ(decoded->tcp_bytes_sent, msg.tcp_bytes_sent);
  EXPECT_EQ(decoded->resend_bytes, msg.resend_bytes);
  EXPECT_EQ(decoded->replication_bytes, msg.replication_bytes);
  EXPECT_EQ(decoded->peak_rss_bytes, msg.peak_rss_bytes);
  EXPECT_EQ(decoded->link_bytes, msg.link_bytes);
}

TEST(NetControlTest, StateUpdateRoundTrips) {
  StateUpdateMsg msg;
  msg.partition = 4;
  msg.iteration = 2;
  msg.begin = 100;
  msg.count = 3;
  msg.states = Bytes({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  msg.virtual_count = 1;
  msg.virtuals = Bytes({42, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4});
  auto decoded = Decode<StateUpdateMsg>(Encode(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->partition, msg.partition);
  EXPECT_EQ(decoded->iteration, msg.iteration);
  EXPECT_EQ(decoded->begin, msg.begin);
  EXPECT_EQ(decoded->count, msg.count);
  EXPECT_EQ(decoded->states, msg.states);
  EXPECT_EQ(decoded->virtual_count, msg.virtual_count);
  EXPECT_EQ(decoded->virtuals, msg.virtuals);
}

TEST(NetControlTest, PlacementCarriesFaultPlansAndTolerance) {
  PlacementMsg msg;
  msg.num_machines = 8;
  msg.num_partitions = 2;
  msg.replication = 3;
  msg.fault_tolerant = 1;
  msg.replicas = {0, 1, 2, 3, 4, 5};
  runtime::RuntimeFaultPlan plan;
  plan.machine = 5;
  plan.iteration = 1;
  plan.stage = runtime::RuntimeStage::kCombine;
  plan.after_tasks = 2;
  msg.faults.push_back(plan);
  auto decoded = Decode<PlacementMsg>(Encode(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->num_machines, msg.num_machines);
  EXPECT_EQ(decoded->fault_tolerant, 1);
  EXPECT_EQ(decoded->replicas, msg.replicas);
  ASSERT_EQ(decoded->faults.size(), 1u);
  EXPECT_EQ(decoded->faults[0].machine, plan.machine);
  EXPECT_EQ(decoded->faults[0].iteration, plan.iteration);
  EXPECT_EQ(decoded->faults[0].stage, plan.stage);
  EXPECT_EQ(decoded->faults[0].after_tasks, plan.after_tasks);
}

TEST(NetFrameTest, FramesCarryPerLinkSequenceAndSendStamp) {
  auto [a, b] = MustPair();
  ASSERT_TRUE(WriteFrame(a, FrameType::kData, Bytes({1})).ok());
  ASSERT_TRUE(WriteFrame(a, FrameType::kEos).ok());
  ASSERT_TRUE(WriteFrame(a, FrameType::kData, Bytes({2})).ok());

  uint64_t prev_seq = 0;
  for (int i = 0; i < 3; ++i) {
    auto frame = ReadFrame(b);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    // Sequence numbers are per link and dense: 1, 2, 3 across frame types.
    EXPECT_EQ(frame->link_seq, prev_seq + 1);
    prev_seq = frame->link_seq;
    EXPECT_GT(frame->send_unix_us, 0u);
    // Same host, same clock: receive cannot precede send.
    EXPECT_GE(frame->recv_unix_us, frame->send_unix_us);
  }
  EXPECT_EQ(a.frames_written(), 3u);
}

// v2 header evolution: a frame from a hypothetical v1 peer (pre-stamp
// 16-byte header era, still sending version=1) must be refused as
// NotSupported — protocol mismatch, not corruption.
TEST(NetFrameTest, OldVersionPeerFrameIsNotSupported) {
  auto [a, b] = MustPair();
  FrameHeader header;
  header.version = 1;
  header.type = static_cast<uint16_t>(FrameType::kHeartbeat);
  ASSERT_TRUE(a.WriteFull(&header, sizeof(header)).ok());
  auto bad = ReadFrame(b);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotSupported);
}

TEST(NetFrameTest, HeartbeatFrameRoundTrips) {
  HeartbeatMsg msg;
  msg.proc = 2;
  msg.stage = 1;
  msg.iteration = 4;
  msg.round_seq = 17;
  msg.mailbox_frames = 5;
  msg.inflight_bytes = 4096;
  msg.staged_wire_bytes = 512;
  msg.rss_bytes = 10 << 20;
  msg.barrier_waiting = 1;
  msg.unix_us = 1234567890;

  auto [a, b] = MustPair();
  ASSERT_TRUE(WriteFrame(a, FrameType::kHeartbeat, Encode(msg)).ok());
  auto frame = ReadFrame(b);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kHeartbeat);
  auto decoded = Decode<HeartbeatMsg>(frame->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->proc, msg.proc);
  EXPECT_EQ(decoded->stage, msg.stage);
  EXPECT_EQ(decoded->iteration, msg.iteration);
  EXPECT_EQ(decoded->round_seq, msg.round_seq);
  EXPECT_EQ(decoded->mailbox_frames, msg.mailbox_frames);
  EXPECT_EQ(decoded->inflight_bytes, msg.inflight_bytes);
  EXPECT_EQ(decoded->staged_wire_bytes, msg.staged_wire_bytes);
  EXPECT_EQ(decoded->rss_bytes, msg.rss_bytes);
  EXPECT_EQ(decoded->barrier_waiting, msg.barrier_waiting);
  EXPECT_EQ(decoded->unix_us, msg.unix_us);
}

TEST(NetFrameTest, TornHeartbeatFrameIsCorruption) {
  // The stream dies mid-heartbeat: header promises a full payload, the
  // socket closes after half of it — corruption taxonomy, not clean EOF.
  HeartbeatMsg msg;
  msg.proc = 1;
  const std::vector<uint8_t> payload = Encode(msg);
  auto [a, b] = MustPair();
  FrameHeader header;
  header.type = static_cast<uint16_t>(FrameType::kHeartbeat);
  header.payload_bytes = payload.size();
  ASSERT_TRUE(a.WriteFull(&header, sizeof(header)).ok());
  ASSERT_TRUE(a.WriteFull(payload.data(), payload.size() / 2).ok());
  a.Close();
  auto torn = ReadFrame(b);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kCorruption);
}

TEST(NetControlTest, ShortHeartbeatPayloadIsCorruption) {
  HeartbeatMsg msg;
  std::vector<uint8_t> encoded = Encode(msg);
  encoded.resize(encoded.size() - 3);
  auto decoded = Decode<HeartbeatMsg>(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(NetControlTest, ClockSyncPayloadsRoundTrip) {
  ClockPingMsg ping;
  ping.seq = 3;
  auto ping_decoded = Decode<ClockPingMsg>(Encode(ping));
  ASSERT_TRUE(ping_decoded.ok()) << ping_decoded.status().ToString();
  EXPECT_EQ(ping_decoded->seq, ping.seq);

  ClockPongMsg pong;
  pong.seq = 3;
  pong.t1 = 1000;
  pong.t2 = 1800;
  auto pong_decoded = Decode<ClockPongMsg>(Encode(pong));
  ASSERT_TRUE(pong_decoded.ok()) << pong_decoded.status().ToString();
  EXPECT_EQ(pong_decoded->seq, pong.seq);
  EXPECT_EQ(pong_decoded->t1, pong.t1);
  EXPECT_EQ(pong_decoded->t2, pong.t2);

  ClockOffsetMsg offset;
  offset.offset_us = -4200;
  offset.uncertainty_us = 37;
  auto offset_decoded = Decode<ClockOffsetMsg>(Encode(offset));
  ASSERT_TRUE(offset_decoded.ok()) << offset_decoded.status().ToString();
  EXPECT_EQ(offset_decoded->offset_us, offset.offset_us);
  EXPECT_EQ(offset_decoded->uncertainty_us, offset.uncertainty_us);
}

TEST(NetControlTest, WorkerStatsRoundTripsHealthPlaneFields) {
  WorkerStatsMsg msg;
  msg.heartbeats_sent = 9;
  msg.clock_synced = 1;
  msg.clock_offset_us = {0, -150, 2300};
  msg.clock_uncertainty_us = {0, 12, 40};
  RoundLinkStat link;
  link.seq = 6;
  link.iteration = 2;
  link.kind = 1;
  link.from_proc = 1;
  link.frames = 4;
  link.bytes = 8192;
  link.latency_sum_us = 1200;
  link.latency_max_us = 500;
  link.first_send_us = 111;
  link.last_recv_us = 999;
  msg.round_link_stats.push_back(link);
  auto decoded = Decode<WorkerStatsMsg>(Encode(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->heartbeats_sent, msg.heartbeats_sent);
  EXPECT_EQ(decoded->clock_synced, msg.clock_synced);
  EXPECT_EQ(decoded->clock_offset_us, msg.clock_offset_us);
  EXPECT_EQ(decoded->clock_uncertainty_us, msg.clock_uncertainty_us);
  ASSERT_EQ(decoded->round_link_stats.size(), 1u);
  EXPECT_EQ(decoded->round_link_stats[0].seq, link.seq);
  EXPECT_EQ(decoded->round_link_stats[0].iteration, link.iteration);
  EXPECT_EQ(decoded->round_link_stats[0].kind, link.kind);
  EXPECT_EQ(decoded->round_link_stats[0].from_proc, link.from_proc);
  EXPECT_EQ(decoded->round_link_stats[0].frames, link.frames);
  EXPECT_EQ(decoded->round_link_stats[0].bytes, link.bytes);
  EXPECT_EQ(decoded->round_link_stats[0].latency_sum_us, link.latency_sum_us);
  EXPECT_EQ(decoded->round_link_stats[0].latency_max_us, link.latency_max_us);
}

TEST(NetControlTest, PlacementCarriesHealthPlaneKnobs) {
  PlacementMsg msg;
  msg.num_machines = 4;
  msg.num_partitions = 4;
  msg.replication = 2;
  msg.replicas = {0, 1, 1, 2, 2, 3, 3, 0};
  msg.heartbeat_period_ms = 50;
  msg.clock_sync_pings = 8;
  msg.stall_proc = 1;
  msg.stall_iteration = 2;
  msg.stall_ms = 300;
  auto decoded = Decode<PlacementMsg>(Encode(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->heartbeat_period_ms, msg.heartbeat_period_ms);
  EXPECT_EQ(decoded->clock_sync_pings, msg.clock_sync_pings);
  EXPECT_EQ(decoded->stall_proc, msg.stall_proc);
  EXPECT_EQ(decoded->stall_iteration, msg.stall_iteration);
  EXPECT_EQ(decoded->stall_ms, msg.stall_ms);
}

// Fork-free NTP exchange over a socketpair (TSan-safe): both halves agree
// on the estimated offset with opposite signs, and on one host with one
// clock the estimate must land near zero.
TEST(NetTransportTest, ClockSyncAgreesAcrossASocketpair) {
  auto [client_sock, server_sock] = MustPair();
  Result<ClockOffsetMsg> server_result =
      Status::Unavailable("server never ran");
  std::thread server([&server_sock, &server_result] {
    server_result = RunClockSyncServer(server_sock);
  });
  auto client_result = RunClockSyncClient(client_sock, /*pings=*/8);
  server.join();
  ASSERT_TRUE(client_result.ok()) << client_result.status().ToString();
  ASSERT_TRUE(server_result.ok()) << server_result.status().ToString();
  EXPECT_EQ(client_result->offset_us, -server_result->offset_us);
  EXPECT_EQ(client_result->uncertainty_us, server_result->uncertainty_us);
  // Loopback round trips are microseconds; a same-clock estimate beyond
  // 100ms would mean the math, not the link, is broken.
  EXPECT_LT(std::abs(client_result->offset_us), 100 * 1000);
}

TEST(NetControlTest, TruncatedControlPayloadIsCorruption) {
  WorkerStatsMsg msg;
  msg.link_bytes = {1, 2, 3, 4};
  std::vector<uint8_t> encoded = Encode(msg);
  encoded.resize(encoded.size() / 2);
  auto decoded = Decode<WorkerStatsMsg>(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

// The placement's exact bytes: fields in declaration order at their own
// widths, no padding, each fault plan as 13 bytes (u32 machine, i32
// iteration, u8 stage, u32 after_tasks).
TEST(NetControlTest, PlacementBytesArePinned) {
  PlacementMsg msg;
  msg.num_machines = 4;
  msg.num_partitions = 1;
  msg.replication = 2;
  msg.fault_tolerant = 1;
  msg.replicas = {3, 1};
  msg.faults = {{2, 1, runtime::RuntimeStage::kCombine, 3},
                {1, -1, runtime::RuntimeStage::kTransfer, 0x0A0B0C0Du}};
  msg.heartbeat_period_ms = 50;
  msg.clock_sync_pings = 8;
  msg.stall_iteration = 2;
  msg.stall_ms = 300;
  const std::vector<uint8_t> expected = Bytes({
      4, 0, 0, 0,                                         // num_machines
      1, 0, 0, 0,                                         // num_partitions
      2, 0, 0, 0,                                         // replication
      1,                                                  // fault_tolerant
      2, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0,                 // replicas
      2, 0, 0, 0,                                         // fault count
      2, 0, 0, 0, 1, 0, 0, 0, 1, 3, 0, 0, 0,              // plan 0
      1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 13, 12, 11, 10,  // plan 1
      50, 0, 0, 0,                                        // heartbeat_period_ms
      8, 0, 0, 0,                                         // clock_sync_pings
      0xFF, 0xFF, 0xFF, 0xFF,                             // stall_proc
      2, 0, 0, 0,                                         // stall_iteration
      0x2C, 1, 0, 0,                                      // stall_ms
  });
  EXPECT_EQ(Encode(msg), expected);
  auto decoded = Decode<PlacementMsg>(expected);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(Encode(*decoded), expected);
}

// A hostile fault count is refused against the bytes left, before the
// decoder sizes a vector for it.
TEST(NetControlTest, PlacementWithHugeFaultCountIsCorruption) {
  PlacementMsg msg;
  msg.replicas = {3, 1};
  std::vector<uint8_t> encoded = Encode(msg);
  const size_t fault_count_at = 13 + 4 + 2 * sizeof(MachineId);
  std::memset(encoded.data() + fault_count_at, 0xFF, sizeof(uint32_t));
  auto decoded = Decode<PlacementMsg>(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

template <typename Msg>
Status DecodeWithTrailingByte(const Msg& msg) {
  std::vector<uint8_t> encoded = Encode(msg);
  encoded.push_back(0);
  return Decode<Msg>(encoded).status();
}

TEST(NetControlTest, TrailingByteIsCorruption) {
  HeartbeatMsg heartbeat;
  heartbeat.proc = 1;
  EXPECT_EQ(DecodeWithTrailingByte(heartbeat).code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodeWithTrailingByte(WellFormedRound(RoundKind::kTransfer))
                .code(),
            StatusCode::kCorruption);
  WorkerStatsMsg stats;
  stats.link_bytes = {1, 2, 3, 4};
  EXPECT_EQ(DecodeWithTrailingByte(stats).code(), StatusCode::kCorruption);
}

/// A transfer-round report of partition 2 run by machine 1, which process 1
/// of 2 hosts, checked against WellFormedRound (3 partitions, 3 machines,
/// iteration 0).
TaskDoneMsg WellFormedTaskDone() {
  TaskDoneMsg task;
  task.partition = 2;
  task.machine = 1;
  task.iteration = 0;
  task.kind = static_cast<uint8_t>(RoundKind::kTransfer);
  return task;
}

Status ValidateFromProcOne(const TaskDoneMsg& task) {
  auto decoded = Decode<TaskDoneMsg>(Encode(task));
  if (!decoded.ok()) {
    return decoded.status();
  }
  return ValidateTaskDone(*decoded, WellFormedRound(RoundKind::kTransfer),
                          /*proc=*/1, /*num_processes=*/2,
                          /*num_partitions=*/3, /*num_machines=*/3);
}

TEST(NetControlTest, ValidTaskDoneIsAccepted) {
  const Status status = ValidateFromProcOne(WellFormedTaskDone());
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(NetControlTest, TaskDonePartitionOutOfRangeIsCorruption) {
  TaskDoneMsg task = WellFormedTaskDone();
  task.partition = 3;
  const Status status = ValidateFromProcOne(task);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST(NetControlTest, TaskDoneMachineOutOfRangeIsCorruption) {
  TaskDoneMsg task = WellFormedTaskDone();
  task.machine = 3;  // 3 % 2 == 1, but there is no machine 3
  const Status status = ValidateFromProcOne(task);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST(NetControlTest, TaskDoneMachineHostedElsewhereIsCorruption) {
  TaskDoneMsg task = WellFormedTaskDone();
  task.machine = 2;  // hosted by process 0
  const Status status = ValidateFromProcOne(task);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST(NetControlTest, TaskDoneOfAnotherKindIsCorruption) {
  TaskDoneMsg task = WellFormedTaskDone();
  task.kind = static_cast<uint8_t>(RoundKind::kCombine);
  const Status status = ValidateFromProcOne(task);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST(NetControlTest, TaskDoneOfAnotherIterationIsCorruption) {
  TaskDoneMsg task = WellFormedTaskDone();
  task.iteration = 1;
  const Status status = ValidateFromProcOne(task);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

}  // namespace
}  // namespace net
}  // namespace surfer
