#include "nn/serialize.h"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/codec.h"
#include "common/faults.h"
#include "nn/batchnorm.h"

namespace acobe::nn {
namespace {

// magic, payload byte count, CRC32 of the payload, then the payload:
// truncation and bit rot are detected up front instead of crashing
// mid-parse or silently loading garbage weights.
constexpr std::uint32_t kMagic = 0xAC0BE101;

// Hostile-input ceilings: reject absurd header values before they turn
// into multi-gigabyte allocations.
constexpr std::uint32_t kMaxDim = 1u << 20;
constexpr std::uint32_t kMaxDepth = 64;
constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;

constexpr const char* kTruncated = "LoadAutoencoder: truncated stream";

template <typename Fn>
void ForEachStateTensor(Sequential& net, Fn&& fn) {
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    Layer& layer = net.layer(i);
    for (Param* p : layer.Params()) fn(p->value);
    if (auto* bn = dynamic_cast<BatchNorm*>(&layer)) {
      fn(bn->running_mean());
      fn(bn->running_var());
    }
  }
}

}  // namespace

void SaveAutoencoder(const AutoencoderSpec& spec, Sequential& net,
                     std::ostream& out) {
  ByteWriter payload;
  payload.U32(static_cast<std::uint32_t>(spec.input_dim));
  payload.U32(static_cast<std::uint32_t>(spec.encoder_dims.size()));
  for (std::size_t d : spec.encoder_dims) {
    payload.U32(static_cast<std::uint32_t>(d));
  }
  payload.U32(spec.batch_norm ? 1 : 0);
  payload.U32(spec.sigmoid_output ? 1 : 0);
  ForEachStateTensor(net, [&](Tensor& t) {
    payload.U32(static_cast<std::uint32_t>(t.rows()));
    payload.U32(static_cast<std::uint32_t>(t.cols()));
    payload.Raw(t.data(), t.size() * sizeof(float));
  });
  ByteWriter header;
  header.U32(kMagic);
  header.U32(static_cast<std::uint32_t>(payload.str().size()));
  header.U32(Crc32(payload.str()));
  out.write(header.str().data(),
            static_cast<std::streamsize>(header.str().size()));
  out.write(payload.str().data(),
            static_cast<std::streamsize>(payload.str().size()));
}

Sequential LoadAutoencoder(std::istream& in, AutoencoderSpec& spec_out) {
  std::uint32_t magic = 0;
  ReadExact(in, &magic, sizeof(magic), kTruncated);
  if (magic != kMagic) {
    throw std::runtime_error("LoadAutoencoder: bad magic");
  }
  std::uint32_t size = 0;
  ReadExact(in, &size, sizeof(size), kTruncated);
  if (size > kMaxPayloadBytes) {
    throw std::runtime_error("LoadAutoencoder: implausible payload size");
  }
  std::uint32_t expected_crc = 0;
  ReadExact(in, &expected_crc, sizeof(expected_crc), kTruncated);
  std::string payload(size, '\0');
  ReadExact(in, payload.data(), size, "LoadAutoencoder: truncated payload");
  if (Crc32(payload) != expected_crc) {
    throw std::runtime_error(
        "LoadAutoencoder: checksum mismatch (corrupt artifact)");
  }
  ByteReader<> r(payload, kTruncated);
  AutoencoderSpec spec;
  const std::uint32_t input_dim = r.U32();
  if (input_dim == 0 || input_dim > kMaxDim) {
    throw std::runtime_error("LoadAutoencoder: implausible input dim");
  }
  spec.input_dim = input_dim;
  const std::uint32_t depth = r.U32();
  if (depth == 0 || depth > kMaxDepth) {
    throw std::runtime_error("LoadAutoencoder: implausible encoder depth");
  }
  spec.encoder_dims.clear();
  for (std::uint32_t i = 0; i < depth; ++i) {
    const std::uint32_t dim = r.U32();
    if (dim == 0 || dim > kMaxDim) {
      throw std::runtime_error("LoadAutoencoder: implausible layer dim");
    }
    spec.encoder_dims.push_back(dim);
  }
  spec.batch_norm = r.U32() != 0;
  spec.sigmoid_output = r.U32() != 0;

  Sequential net = BuildAutoencoder(spec);
  ForEachStateTensor(net, [&](Tensor& t) {
    const std::uint32_t rows = r.U32();
    const std::uint32_t cols = r.U32();
    if (rows != t.rows() || cols != t.cols()) {
      throw std::runtime_error("LoadAutoencoder: tensor shape mismatch");
    }
    const std::size_t bytes = t.size() * sizeof(float);
    if (bytes > r.remaining()) {
      throw std::runtime_error("LoadAutoencoder: truncated tensor");
    }
    r.Raw(t.data(), bytes);
  });
  spec_out = spec;
  return net;
}

void SaveAutoencoderFile(const AutoencoderSpec& spec, Sequential& net,
                         const std::string& path) {
  WriteFileAtomic(path,
                  [&](std::ostream& out) { SaveAutoencoder(spec, net, out); });
}

Sequential LoadAutoencoderFile(const std::string& path,
                               AutoencoderSpec& spec_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("LoadAutoencoderFile: cannot open " + path);
  return LoadAutoencoder(in, spec_out);
}

}  // namespace acobe::nn
