#ifndef SURFER_PROPAGATION_APP_TRAITS_H_
#define SURFER_PROPAGATION_APP_TRAITS_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "graph/types.h"

namespace surfer {

namespace internal {

/// Extracts App::VirtualOutput when present; std::monostate otherwise.
/// Shared by the analytic PropagationRunner and the concurrent
/// runtime::RuntimeExecutor, which must agree on the output type to be
/// cross-validated against each other.
template <typename App, typename = void>
struct VirtualOutputOf {
  using type = std::monostate;
};
template <typename App>
struct VirtualOutputOf<App, std::void_t<typename App::VirtualOutput>> {
  using type = typename App::VirtualOutput;
};

}  // namespace internal

/// Collects the (target, message) pairs emitted by a `transfer` call.
/// Targets are either real graph vertices or *virtual vertices* (Section 3.2)
/// addressed by an arbitrary 64-bit ID; virtual vertices emulate
/// MapReduce-style vertex-oriented aggregation (VDD uses the degree value as
/// the virtual-vertex ID).
template <typename Message>
class PropagationEmitter {
 public:
  void Emit(VertexId target, Message message) {
    real_.emplace_back(target, std::move(message));
  }
  void EmitVirtual(uint64_t target, Message message) {
    virtual_.emplace_back(target, std::move(message));
  }

  /// Streams every emission into the visitors — reals first, then virtuals,
  /// both in emission order — and resets the emitter for the next vertex.
  /// This is the only way engines consume emissions: a sink interface lets
  /// them route messages straight into wire batches or delivery buckets
  /// without copying or mutating the emitter's internals.
  template <typename RealFn, typename VirtualFn>
  void Drain(RealFn&& on_real, VirtualFn&& on_virtual) {
    for (auto& [target, message] : real_) {
      on_real(target, std::move(message));
    }
    for (auto& [target, message] : virtual_) {
      on_virtual(target, std::move(message));
    }
    real_.clear();
    virtual_.clear();
  }

 private:
  std::vector<std::pair<VertexId, Message>> real_;
  std::vector<std::pair<uint64_t, Message>> virtual_;
};

/// The propagation application interface (Section 3.2). An app provides:
///   using VertexState — per-vertex persistent state;
///   using Message — the value transferred along an edge;
///   VertexState InitState(VertexId v, std::span<const VertexId> neighbors);
///   void Transfer(VertexId v, const VertexState&,
///                 std::span<const VertexId> neighbors,
///                 PropagationEmitter<Message>&) const;
///   void Combine(VertexId v, VertexState&,
///                std::span<const VertexId> neighbors,
///                std::vector<Message>&) const;
/// (Combine receives v's adjacency list because apps like triangle counting
/// "check whether the adjacent list has overlapping with any of the awarded
/// neighbor lists", Appendix D Algorithm 3.)
///   size_t MessageBytes(const Message&) const;
///   size_t StateBytes(const VertexState&) const;
/// Optionally:
///   Message Merge(const Message&, const Message&) const — marks `combine`
///     associative, enabling local combination (Section 5.1);
///   using VirtualOutput + VirtualOutput CombineVirtual(uint64_t id,
///     std::vector<Message>&) const — handles virtual-vertex aggregation.
template <typename App>
concept PropagationApp = requires(
    const App app, VertexId v, typename App::VertexState state,
    std::span<const VertexId> neighbors,
    PropagationEmitter<typename App::Message> emitter,
    std::vector<typename App::Message> messages) {
  typename App::VertexState;
  typename App::Message;
  { app.InitState(v, neighbors) } -> std::same_as<typename App::VertexState>;
  app.Transfer(v, state, neighbors, emitter);
  app.Combine(v, state, neighbors, messages);
  { app.MessageBytes(messages[0]) } -> std::convertible_to<size_t>;
  { app.StateBytes(state) } -> std::convertible_to<size_t>;
};

/// Detected when the app's combine is associative (local combination legal).
template <typename App>
concept MergeableApp = requires(const App app, const typename App::Message m) {
  { app.Merge(m, m) } -> std::same_as<typename App::Message>;
};

/// Detected when the app wants to know the current iteration (apps whose
/// combine logic depends on the round, like the recommender's acceptance
/// epoch). Called before each iteration's Transfer stage.
template <typename App>
concept IterationAwareApp = requires(App app, int iteration) {
  app.OnIterationStart(iteration);
};

/// Opt-in frontier-gating trait (default off): an app declares
///   static constexpr bool kSkipSilentVertices = true;
/// to promise that `Combine` with an *empty* message vector leaves the
/// vertex state untouched (the call is the identity). Engines may then skip
/// silent vertices — those whose received-message frontier bit is clear —
/// instead of walking the full partition range every iteration, and results
/// stay bit-identical by the app's own contract. Apps whose Combine writes
/// state unconditionally (NR overwrites the rank with the random-jump term
/// even when no partial ranks arrive) must NOT declare this; they keep the
/// exact legacy full-range loop.
template <typename App>
concept SilentVertexSkippableApp = requires {
  requires bool(App::kSkipSilentVertices);
};

/// Detected when the app aggregates on virtual vertices.
template <typename App>
concept VirtualVertexApp = requires(
    const App app, uint64_t id, std::vector<typename App::Message> messages) {
  typename App::VirtualOutput;
  {
    app.CombineVirtual(id, messages)
  } -> std::same_as<typename App::VirtualOutput>;
};

}  // namespace surfer

#endif  // SURFER_PROPAGATION_APP_TRAITS_H_
