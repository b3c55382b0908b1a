#include "store/key.hpp"

#include <bit>

namespace mn::store {
namespace {

// FNV-1a/128 parameters (Fowler–Noll–Vo, 128-bit variant).
constexpr unsigned __int128 fnv_offset_basis() {
  return (static_cast<unsigned __int128>(0x6C62272E07BB0142ull) << 64) |
         0x62B821756295C58Dull;
}
constexpr unsigned __int128 fnv_prime() {
  return (static_cast<unsigned __int128>(0x0000000001000000ull) << 64) | 0x13Bull;
}

constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::string ScenarioKey::hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(i)] = kDigits[(hi >> (60 - i * 4)) & 0xF];
    out[static_cast<std::size_t>(16 + i)] = kDigits[(lo >> (60 - i * 4)) & 0xF];
  }
  return out;
}

KeyBuilder::KeyBuilder(std::string_view domain, std::uint32_t version)
    : h_(fnv_offset_basis()) {
  str(domain);
  u32(version);
}

void KeyBuilder::absorb(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h_ ^= p[i];
    h_ *= fnv_prime();
  }
}

KeyBuilder& KeyBuilder::u8(std::uint8_t v) {
  absorb(&v, 1);
  return *this;
}

KeyBuilder& KeyBuilder::u32(std::uint32_t v) {
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (i * 8));
  absorb(b, sizeof b);
  return *this;
}

KeyBuilder& KeyBuilder::u64(std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (i * 8));
  absorb(b, sizeof b);
  return *this;
}

KeyBuilder& KeyBuilder::i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }

KeyBuilder& KeyBuilder::f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }

KeyBuilder& KeyBuilder::boolean(bool v) { return u8(v ? 1 : 0); }

KeyBuilder& KeyBuilder::str(std::string_view s) {
  u64(s.size());
  absorb(s.data(), s.size());
  return *this;
}

ScenarioKey KeyBuilder::finish() const {
  // FNV mixes low bits well but diffuses upward slowly; avalanche both
  // halves and cross-fold so every input bit reaches every output bit.
  const auto raw_lo = static_cast<std::uint64_t>(h_);
  const auto raw_hi = static_cast<std::uint64_t>(h_ >> 64);
  ScenarioKey key;
  key.hi = splitmix64(raw_hi ^ splitmix64(raw_lo));
  key.lo = splitmix64(raw_lo ^ key.hi);
  return key;
}

}  // namespace mn::store
