#include "compress/wire.h"

#include <cmath>

#include "compress/bytes.h"
#include "tensor/check.h"

namespace adafl::compress {

namespace {

int level_bits(int quant_levels) {
  return static_cast<int>(std::ceil(std::log2(2.0 * quant_levels + 1.0)));
}

/// Signed level -> zig-zag code (0, -1, 1, -2, 2, ... -> 0, 1, 2, 3, 4).
std::uint32_t zigzag(std::int8_t v) {
  const std::int32_t x = v;
  return static_cast<std::uint32_t>((x << 1) ^ (x >> 31));
}

std::int8_t unzigzag(std::uint32_t u) {
  return static_cast<std::int8_t>(static_cast<std::int32_t>(u >> 1) ^
                                  -static_cast<std::int32_t>(u & 1));
}

/// Exact packed-payload size for `count` codes of `bits` bits each.
std::int64_t packed_bytes(std::int64_t count, int bits) {
  return (count * bits + 7) / 8;
}

}  // namespace

void BitWriter::put(std::uint32_t value, int bits) {
  ADAFL_CHECK_MSG(bits >= 1 && bits <= 32, "BitWriter: bits in [1,32]");
  ADAFL_CHECK_MSG(bits == 32 || value < (1u << bits),
                  "BitWriter: value does not fit in " << bits << " bits");
  for (int i = 0; i < bits; ++i) {
    if (bit_pos_ == 0) bytes_.push_back(0);
    if (value & (1u << i))
      bytes_.back() |= static_cast<std::uint8_t>(1u << bit_pos_);
    bit_pos_ = (bit_pos_ + 1) % 8;
  }
}

std::uint32_t BitReader::get(int bits) {
  ADAFL_CHECK_MSG(bits >= 1 && bits <= 32, "BitReader: bits in [1,32]");
  std::uint32_t v = 0;
  for (int i = 0; i < bits; ++i) {
    const std::size_t byte = pos_ / 8;
    ADAFL_CHECK_MSG(byte < bytes_.size(), "BitReader: out of data");
    if (bytes_[byte] & (1u << (pos_ % 8))) v |= (1u << i);
    ++pos_;
  }
  return v;
}

std::int64_t wire_size(const EncodedGradient& e) {
  std::int64_t n = 8;  // kind + aux + reserved + dense_size
  switch (e.kind) {
    case CodecKind::kIdentity:
      n += e.dense_size * 4;
      break;
    case CodecKind::kTopK:
      n += static_cast<std::int64_t>(e.indices.size()) * 8;
      break;
    case CodecKind::kQsgd:
      n += 4 + packed_bytes(e.dense_size,
                            level_bits(std::max(e.quant_levels, 1)));
      break;
    case CodecKind::kTernary:
      n += 4 + packed_bytes(e.dense_size, 2);
      break;
  }
  return n;
}

std::vector<std::uint8_t> serialize(const EncodedGradient& e) {
  std::vector<std::uint8_t> out;
  serialize_into(e, out);
  return out;
}

void serialize_into(const EncodedGradient& e, std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(static_cast<std::size_t>(wire_size(e)));
  out.push_back(static_cast<std::uint8_t>(e.kind));
  // The aux header byte carries the QSGD level count so the payload needs no
  // separate field and serialize() is exactly wire_bytes for every kind.
  if (e.kind == CodecKind::kQsgd) {
    ADAFL_CHECK(e.quant_levels >= 1 && e.quant_levels <= 127);
    out.push_back(static_cast<std::uint8_t>(e.quant_levels));
  } else {
    out.push_back(0);
  }
  out.push_back(0);
  out.push_back(0);
  bytes::put_u32(out, static_cast<std::uint32_t>(e.dense_size));
  switch (e.kind) {
    case CodecKind::kIdentity:
      ADAFL_CHECK(static_cast<std::int64_t>(e.values.size()) == e.dense_size);
      bytes::put_f32s(out, e.values);
      break;
    case CodecKind::kTopK:
      ADAFL_CHECK(e.indices.size() == e.values.size());
      for (std::size_t i = 0; i < e.indices.size(); ++i) {
        bytes::put_u32(out, e.indices[i]);
        bytes::put_f32(out, e.values[i]);
      }
      break;
    case CodecKind::kQsgd: {
      ADAFL_CHECK(static_cast<std::int64_t>(e.levels.size()) == e.dense_size);
      bytes::put_f32(out, e.scale);
      BitWriter bw;
      const int bits = level_bits(e.quant_levels);
      for (auto l : e.levels) bw.put(zigzag(l), bits);
      auto packed = bw.take();
      out.insert(out.end(), packed.begin(), packed.end());
      break;
    }
    case CodecKind::kTernary: {
      ADAFL_CHECK(static_cast<std::int64_t>(e.levels.size()) == e.dense_size);
      bytes::put_f32(out, e.scale);
      BitWriter bw;
      for (auto l : e.levels) {
        ADAFL_CHECK_MSG(l >= -1 && l <= 1, "wire: non-ternary level");
        bw.put(zigzag(l), 2);
      }
      auto packed = bw.take();
      out.insert(out.end(), packed.begin(), packed.end());
      break;
    }
  }
  ADAFL_CHECK(static_cast<std::int64_t>(out.size()) == wire_size(e));
}

EncodedGradient deserialize(std::span<const std::uint8_t> bytes_in) {
  EncodedGradient e;
  deserialize_into(bytes_in, e);
  return e;
}

void deserialize_into(std::span<const std::uint8_t> bytes_in,
                      EncodedGradient& e) {
  ADAFL_CHECK_MSG(bytes_in.size() >= 8, "wire: buffer shorter than header");
  // Reset every field: a reused message must not leak state from the
  // previous frame (the vectors keep their capacity).
  e.indices.clear();
  e.values.clear();
  e.levels.clear();
  e.scale = 1.0f;
  e.quant_levels = 0;
  const std::uint8_t kind_raw = bytes_in[0];
  ADAFL_CHECK_MSG(kind_raw <= static_cast<std::uint8_t>(CodecKind::kTernary),
                  "wire: unknown codec kind " << int(kind_raw));
  e.kind = static_cast<CodecKind>(kind_raw);
  const std::uint8_t aux = bytes_in[1];
  ADAFL_CHECK_MSG(e.kind == CodecKind::kQsgd || aux == 0,
                  "wire: nonzero aux byte for non-qsgd kind");
  ADAFL_CHECK_MSG(bytes_in[2] == 0 && bytes_in[3] == 0,
                  "wire: nonzero reserved header bytes");
  bytes::Reader r(bytes_in.subspan(4));
  e.dense_size = r.u32();
  switch (e.kind) {
    case CodecKind::kIdentity: {
      ADAFL_CHECK_MSG(
          r.remaining() == static_cast<std::size_t>(e.dense_size) * 4,
          "wire: identity payload size mismatch");
      e.values.resize(static_cast<std::size_t>(e.dense_size));
      r.f32s(e.values);
      break;
    }
    case CodecKind::kTopK: {
      ADAFL_CHECK_MSG(r.remaining() % 8 == 0,
                      "wire: top-k payload not a multiple of 8");
      const std::size_t count = r.remaining() / 8;
      ADAFL_CHECK_MSG(count <= static_cast<std::size_t>(e.dense_size),
                      "wire: top-k count exceeds dense size");
      e.indices.resize(count);
      e.values.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        e.indices[i] = r.u32();
        ADAFL_CHECK_MSG(
            e.indices[i] < static_cast<std::uint32_t>(e.dense_size),
            "wire: top-k index out of range");
        e.values[i] = r.f32();
      }
      break;
    }
    case CodecKind::kQsgd: {
      e.quant_levels = aux;
      ADAFL_CHECK_MSG(e.quant_levels >= 1, "wire: bad qsgd level count");
      e.scale = r.f32();
      const int bits = level_bits(e.quant_levels);
      // Validate the packed size BEFORE allocating dense_size entries, so a
      // forged huge dense_size cannot trigger a giant allocation or
      // over-read.
      ADAFL_CHECK_MSG(
          static_cast<std::int64_t>(r.remaining()) ==
              packed_bytes(e.dense_size, bits),
          "wire: qsgd payload size mismatch");
      BitReader br(r.raw(r.remaining()));
      e.levels.resize(static_cast<std::size_t>(e.dense_size));
      for (auto& l : e.levels) {
        l = unzigzag(br.get(bits));
        ADAFL_CHECK_MSG(std::abs(l) <= e.quant_levels,
                        "wire: qsgd level out of range");
      }
      break;
    }
    case CodecKind::kTernary: {
      e.scale = r.f32();
      ADAFL_CHECK_MSG(static_cast<std::int64_t>(r.remaining()) ==
                          packed_bytes(e.dense_size, 2),
                      "wire: ternary payload size mismatch");
      BitReader br(r.raw(r.remaining()));
      e.levels.resize(static_cast<std::size_t>(e.dense_size));
      for (auto& l : e.levels) {
        l = unzigzag(br.get(2));
        ADAFL_CHECK_MSG(l >= -1 && l <= 1, "wire: bad ternary code");
      }
      break;
    }
  }
  e.wire_bytes = static_cast<std::int64_t>(bytes_in.size());
}

}  // namespace adafl::compress
