// MiddleboxBox: a deterministic middlebox adversary on one pipe
// direction.
//
// Models the MPTCP-hostile behaviours Aschenbrenner et al. measured on
// real paths: stripping MP_CAPABLE/MP_JOIN from SYNs (option-sanitising
// firewalls), dropping SYNs that carry unknown options outright
// (paranoid ALGs), and mangling DSS options on data packets (sequence-
// rewriting NATs and proxies, modelled as the DSS mapping becoming
// meaningless rather than as literal seq rewriting, which a transparent
// middlebox hides from subflow-level TCP anyway).
//
// Determinism: a given box instance is one fixed middlebox, not a coin
// per packet — whether it strips/drops is drawn ONCE from the spec's
// seed when the spec is installed (the per-box probabilities are what a
// campaign sweeps).  Only DSS mangling is a per-packet Bernoulli, since
// real manglers corrupt some segments (e.g. only coalesced/split ones).
//
// The stage is constructed pass-through and enabled by set_spec(), the
// same pattern as GilbertElliottLossBox, so every pipe can own one at
// zero steady-state cost: disabled, accept() is a branch and a forward.
#pragma once

#include <cstdint>

#include "net/links.hpp"
#include "util/rng.hpp"

namespace mn {

/// Per-box middlebox behaviour probabilities.  strip_*/drop_*/rewrite_*
/// are box-level policies (drawn once per install from `seed`);
/// mangle_dss is a per-packet probability.
struct MiddleboxSpec {
  double strip_capable = 0.0;     // P(box strips MP_CAPABLE from SYNs)
  double strip_join = 0.0;        // P(box strips MP_JOIN from SYNs)
  double drop_unknown_syn = 0.0;  // P(box drops SYNs carrying MPTCP options)
  double mangle_dss = 0.0;        // per-packet P(DSS fields zeroed)
  double rewrite_seq = 0.0;       // P(box rewrites seq space: every DSS dies)
  std::uint64_t seed = 0x6d626f78;  // "mbox"

  [[nodiscard]] bool trivial() const {
    return strip_capable <= 0.0 && strip_join <= 0.0 && drop_unknown_syn <= 0.0 &&
           mangle_dss <= 0.0 && rewrite_seq <= 0.0;
  }
};

class MiddleboxBox final : public PacketStage {
 public:
  explicit MiddleboxBox(std::uint64_t seed = 0x6d626f78) : rng_(seed) {}

  void accept(const Packet& in) override;

  /// Install (or replace) the middlebox policy: draws the box-level
  /// decisions from spec.seed and starts interfering with traffic.
  void set_spec(const MiddleboxSpec& spec);
  /// Back to a transparent wire (fault restored).
  void disable();
  [[nodiscard]] bool enabled() const { return enabled_; }

  // -- drawn policy (what this particular box actually does) ----------
  [[nodiscard]] bool strips_capable() const { return strips_capable_; }
  [[nodiscard]] bool strips_join() const { return strips_join_; }
  [[nodiscard]] bool drops_unknown_syn() const { return drops_unknown_syn_; }
  [[nodiscard]] bool rewrites_seq() const { return rewrites_seq_; }

  // -- interference counters ------------------------------------------
  [[nodiscard]] std::uint64_t syn_stripped() const { return syn_stripped_; }
  [[nodiscard]] std::uint64_t syn_dropped() const { return syn_dropped_; }
  [[nodiscard]] std::uint64_t dss_mangled() const { return dss_mangled_; }

 private:
  [[gnu::noinline, gnu::cold]] void note_syn_stripped();
  [[gnu::noinline, gnu::cold]] void note_syn_dropped();
  [[gnu::noinline, gnu::cold]] void note_dss_mangled();

  bool enabled_ = false;
  bool strips_capable_ = false;
  bool strips_join_ = false;
  bool drops_unknown_syn_ = false;
  bool rewrites_seq_ = false;
  double mangle_dss_ = 0.0;
  Rng rng_;
  std::uint64_t syn_stripped_ = 0;
  std::uint64_t syn_dropped_ = 0;
  std::uint64_t dss_mangled_ = 0;
};

}  // namespace mn
