// Tiny byte-string serialization helpers shared by the durability layer
// (WAL records, checkpoint metadata) and by the index/engine metadata
// blobs that ride inside checkpoint records.
//
// The format is raw little-endian PODs appended to a std::string — the
// same convention dataset_io uses over iostreams — plus length-prefixed
// nested blobs. Readers validate remaining length on every extraction and
// throw std::runtime_error on truncation, so corrupt metadata surfaces as
// a recovery error instead of undefined behavior.

#ifndef PDR_STORAGE_SERDE_H_
#define PDR_STORAGE_SERDE_H_

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace pdr {

template <typename T>
void PutPod(std::string* out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

inline void PutBlob(std::string* out, std::string_view blob) {
  PutPod(out, static_cast<uint64_t>(blob.size()));
  out->append(blob.data(), blob.size());
}

/// Cursor over a serialized byte string; every Get validates bounds.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  template <typename T>
  T Get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (data_.size() - pos_ < sizeof(T)) {
      throw std::runtime_error("serialized blob truncated");
    }
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string_view GetBlob() {
    const uint64_t n = Get<uint64_t>();
    if (data_.size() - pos_ < n) {
      throw std::runtime_error("serialized blob truncated");
    }
    const std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// FNV-1a 64-bit over a byte range: the checksum guarding WAL records and
/// checkpoint files against torn writes. Not cryptographic; a torn 4 KB
/// page image or chopped record header fails it with overwhelming
/// probability, which is all crash recovery needs.
inline uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed = 0) {
  uint64_t h = 0xcbf29ce484222325ull ^ seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace pdr

#endif  // PDR_STORAGE_SERDE_H_
