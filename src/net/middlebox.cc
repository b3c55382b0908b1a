#include "net/middlebox.hpp"

namespace mn {

void MiddleboxBox::set_spec(const MiddleboxSpec& spec) {
  // One fixed draw order so a given seed is one reproducible middlebox
  // regardless of which probabilities are zero.
  Rng policy{spec.seed};
  strips_capable_ = policy.chance(spec.strip_capable);
  strips_join_ = policy.chance(spec.strip_join);
  drops_unknown_syn_ = policy.chance(spec.drop_unknown_syn);
  rewrites_seq_ = policy.chance(spec.rewrite_seq);
  mangle_dss_ = spec.mangle_dss;
  rng_ = Rng{mix_seed(spec.seed, "mangle")};
  enabled_ = true;
}

void MiddleboxBox::disable() {
  enabled_ = false;
  strips_capable_ = strips_join_ = drops_unknown_syn_ = rewrites_seq_ = false;
  mangle_dss_ = 0.0;
}

void MiddleboxBox::accept(const Packet& in) {
  ++counters_.accepted;
  if (!enabled_) {
    forward(in);
    return;
  }
  // Enabled, the box may edit options, so it works on its own copy.
  Packet p = in;
  if (p.flags.syn) {
    if (p.mp_option != MpOption::kNone) {
      if (drops_unknown_syn_) {
        ++counters_.dropped;
        ++syn_dropped_;
        note_drop(obs::DropCause::kMiddlebox, p);
        note_syn_dropped();
        return;
      }
      if ((p.mp_option == MpOption::kCapable && strips_capable_) ||
          (p.mp_option == MpOption::kJoin && strips_join_)) {
        p.mp_option = MpOption::kNone;
        ++syn_stripped_;
        note_syn_stripped();
      }
    }
  } else if (p.data_seq >= 0 || p.data_ack >= 0) {
    // Data-path DSS interference.  MP_FAIL itself rides a bare ACK with
    // no DSS fields, so the fallback signal always gets through — the
    // same asymmetry that makes real infinite-mapping fallback viable.
    if (rewrites_seq_ || (mangle_dss_ > 0.0 && rng_.chance(mangle_dss_))) {
      p.data_seq = -1;
      p.data_ack = -1;
      ++dss_mangled_;
      note_dss_mangled();
    }
  }
  forward(p);
}

void MiddleboxBox::note_syn_stripped() {
  if (auto* o = obs()) o->count(o->ids().middlebox_syn_stripped);
}

void MiddleboxBox::note_syn_dropped() {
  if (auto* o = obs()) o->count(o->ids().middlebox_syn_dropped);
}

void MiddleboxBox::note_dss_mangled() {
  if (auto* o = obs()) o->count(o->ids().middlebox_dss_mangled);
}

}  // namespace mn
