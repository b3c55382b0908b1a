// Canonical content keys for RunStore records.
//
// A ScenarioKey is a 128-bit content hash over a canonical little-endian
// binary encoding of everything that can affect a work unit's result,
// plus a format-version salt.  Two invariants make it a safe cache key:
//
//   1. *Canonical encoding*: every field is appended in a fixed order
//      with explicit widths (strings length-prefixed), so the key never
//      depends on struct padding, platform layout, or locale.  Keys are
//      a function of one run's own inputs only — never of plan order,
//      sibling runs, or parallelism.
//   2. *Version salt*: kRunFormatVersion is absorbed first.  Any change
//      to run semantics (simulator behaviour, probe structure, record
//      layout) bumps it, silently invalidating every old entry — a
//      version-mismatched lookup is a clean miss, never a stale hit.
//
// The hash is FNV-1a/128 with a splitmix64 finalizer on both halves.
// It is a *content* hash for memoization, not a cryptographic MAC: the
// store trusts its own files (CRC-framed, see segment.hpp) and 128 bits
// make accidental collisions across any realistic campaign grid
// (billions of runs) vanishingly unlikely.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mn::store {

/// Bump on ANY change that alters what a cached run would produce:
/// simulator semantics, probe sequences, record serialization, metric
/// names.  Old entries then key differently and simply never hit.
/// v2: middlebox adversary layer — MPTCP negotiation/fallback state
/// machine changed flow semantics, campaign grew an MPTCP probe phase,
/// and the chaos/run record blobs carry negotiation fields.
inline constexpr std::uint32_t kRunFormatVersion = 2;

struct ScenarioKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend constexpr auto operator<=>(const ScenarioKey&, const ScenarioKey&) = default;

  /// 32 lowercase hex characters, hi half first (stable display form).
  [[nodiscard]] std::string hex() const;
};

/// For unordered_map: the key is already a high-quality hash.
struct ScenarioKeyHash {
  [[nodiscard]] std::size_t operator()(const ScenarioKey& k) const noexcept {
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9E3779B97F4A7C15ull));
  }
};

/// Streaming canonical encoder + hasher.  `domain` separates key spaces
/// (e.g. "campaign-run" vs "sweep-point") so identical field sequences
/// in different subsystems can never collide; `version` is the format
/// salt (tests inject mismatched versions to prove clean misses).
class KeyBuilder {
 public:
  explicit KeyBuilder(std::string_view domain,
                      std::uint32_t version = kRunFormatVersion);

  KeyBuilder& u8(std::uint8_t v);
  KeyBuilder& u32(std::uint32_t v);
  KeyBuilder& u64(std::uint64_t v);
  KeyBuilder& i64(std::int64_t v);
  /// Bit-exact: encodes the IEEE-754 representation, so keys distinguish
  /// -0.0 from 0.0 and every NaN payload (determinism over prettiness).
  KeyBuilder& f64(double v);
  KeyBuilder& boolean(bool v);
  /// Length-prefixed, so "ab"+"c" never encodes like "a"+"bc".
  KeyBuilder& str(std::string_view s);

  [[nodiscard]] ScenarioKey finish() const;

 private:
  void absorb(const void* data, std::size_t len);

  unsigned __int128 h_;
};

}  // namespace mn::store
