#include "pdr/mobility/dataset_io.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pdr {
namespace {

constexpr char kMagic[4] = {'P', 'D', 'R', 'D'};
constexpr uint32_t kVersion = 1;

template <typename T>
void Put(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T Get(std::istream& is) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw std::runtime_error("dataset stream truncated");
  return value;
}

// Every coordinate that enters or leaves a file must be finite: a NaN
// position poisons the histogram counts and every Rect comparison, and an
// Inf velocity explodes the TPR bounding rectangles — far from where the
// bad value entered. Reject at the I/O boundary with a message naming the
// field instead.
void CheckFinite(double v, const char* field, const char* verb) {
  if (std::isfinite(v)) return;
  throw std::runtime_error(std::string(verb) + ": non-finite " + field +
                           " (NaN or Inf) in motion state");
}

void ValidateState(const MotionState& s, const char* verb) {
  CheckFinite(s.pos.x, "position x", verb);
  CheckFinite(s.pos.y, "position y", verb);
  CheckFinite(s.vel.x, "velocity x", verb);
  CheckFinite(s.vel.y, "velocity y", verb);
}

void PutState(std::ostream& os, const MotionState& s) {
  ValidateState(s, "dataset write rejected");
  Put(os, s.pos.x);
  Put(os, s.pos.y);
  Put(os, s.vel.x);
  Put(os, s.vel.y);
  Put(os, s.t_ref);
}

MotionState GetState(std::istream& is) {
  MotionState s;
  s.pos.x = Get<double>(is);
  s.pos.y = Get<double>(is);
  s.vel.x = Get<double>(is);
  s.vel.y = Get<double>(is);
  s.t_ref = Get<Tick>(is);
  ValidateState(s, "corrupt dataset");
  return s;
}

}  // namespace

void WriteDataset(const Dataset& dataset, std::ostream& os) {
  os.write(kMagic, sizeof(kMagic));
  Put(os, kVersion);

  const WorkloadConfig& c = dataset.config;
  Put(os, c.extent);
  Put(os, static_cast<int32_t>(c.num_objects));
  Put(os, c.max_update_interval);
  Put(os, c.hotspot_trip_bias);
  Put(os, c.hotspot_start_bias);
  Put(os, c.seed);
  Put(os, c.network.extent);
  Put(os, static_cast<int32_t>(c.network.grid_nodes));
  Put(os, static_cast<int32_t>(c.network.highway_stride));
  Put(os, static_cast<int32_t>(c.network.arterial_stride));
  Put(os, static_cast<int32_t>(c.network.num_hotspots));
  Put(os, c.network.hotspot_zipf);
  Put(os, c.network.seed);

  Put(os, static_cast<uint32_t>(dataset.ticks.size()));
  for (const auto& batch : dataset.ticks) {
    Put(os, static_cast<uint32_t>(batch.size()));
    for (const UpdateEvent& e : batch) {
      Put(os, e.tick);
      Put(os, e.id);
      const uint8_t flags = static_cast<uint8_t>(
          (e.old_state ? 1 : 0) | (e.new_state ? 2 : 0));
      Put(os, flags);
      if (e.old_state) PutState(os, *e.old_state);
      if (e.new_state) PutState(os, *e.new_state);
    }
  }
  if (!os) throw std::runtime_error("dataset write failed");
}

Dataset ReadDataset(std::istream& is) {
  char magic[4];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("not a PDR dataset (bad magic)");
  }
  const uint32_t version = Get<uint32_t>(is);
  if (version != kVersion) {
    throw std::runtime_error("unsupported dataset version " +
                             std::to_string(version));
  }

  Dataset dataset;
  WorkloadConfig& c = dataset.config;
  c.extent = Get<double>(is);
  c.num_objects = Get<int32_t>(is);
  c.max_update_interval = Get<Tick>(is);
  c.hotspot_trip_bias = Get<double>(is);
  c.hotspot_start_bias = Get<double>(is);
  c.seed = Get<uint64_t>(is);
  c.network.extent = Get<double>(is);
  c.network.grid_nodes = Get<int32_t>(is);
  c.network.highway_stride = Get<int32_t>(is);
  c.network.arterial_stride = Get<int32_t>(is);
  c.network.num_hotspots = Get<int32_t>(is);
  c.network.hotspot_zipf = Get<double>(is);
  c.network.seed = Get<uint64_t>(is);
  if (!std::isfinite(c.extent) || c.extent <= 0.0) {
    throw std::runtime_error(
        "corrupt dataset: extent must be finite and positive");
  }
  if (c.num_objects < 0 || c.max_update_interval <= 0) {
    throw std::runtime_error(
        "corrupt dataset: negative object count or non-positive U");
  }

  const uint32_t num_ticks = Get<uint32_t>(is);
  if (num_ticks > (1u << 24)) {
    throw std::runtime_error("implausible tick count (corrupt file)");
  }
  // Both counts are unchecked claims until their records arrive, so the
  // vectors grow as records are read: a few corrupt bytes cannot size a
  // gigabyte allocation before truncation is detected.
  for (uint32_t t = 0; t < num_ticks; ++t) {
    std::vector<UpdateEvent>& batch = dataset.ticks.emplace_back();
    const uint32_t count = Get<uint32_t>(is);
    if (count > (1u << 28)) {
      throw std::runtime_error("implausible batch size (corrupt file)");
    }
    for (uint32_t i = 0; i < count; ++i) {
      UpdateEvent e;
      e.tick = Get<Tick>(is);
      e.id = Get<ObjectId>(is);
      const uint8_t flags = Get<uint8_t>(is);
      if (flags & 1) e.old_state = GetState(is);
      if (flags & 2) e.new_state = GetState(is);
      if (flags == 0 || flags > 3) {
        throw std::runtime_error("corrupt update flags");
      }
      batch.push_back(e);
    }
  }
  return dataset;
}

void SaveDataset(const Dataset& dataset, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  WriteDataset(dataset, os);
}

Dataset LoadDataset(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open dataset: " + path);
  return ReadDataset(is);
}

}  // namespace pdr
