#include "src/storage/device_store.hpp"

#include <stdexcept>

#include "src/util/hash.hpp"

namespace rds {

std::size_t FragmentKeyHash::operator()(const FragmentKey& k) const noexcept {
  return static_cast<std::size_t>(hash2(
      k.block, (static_cast<std::uint64_t>(k.volume) << 32) | k.fragment));
}

DeviceStore::DeviceStore(Device device) : device_(std::move(device)) {}

Device DeviceStore::device() const {
  const ReaderLock lock(mu_);
  return device_;
}

std::uint64_t DeviceStore::used() const {
  const ReaderLock lock(mu_);
  return data_.size();
}

std::uint64_t DeviceStore::capacity() const {
  const ReaderLock lock(mu_);
  return device_.capacity;
}

bool DeviceStore::write(const FragmentKey& key,
                        std::vector<std::uint8_t> payload) {
  const MutexLock lock(mu_);
  if (failed()) {
    throw std::runtime_error("DeviceStore: write to failed device " +
                             device_.name);
  }
  const auto it = data_.find(key);
  if (it != data_.end()) {
    it->second.assign(payload.begin(), payload.end());  // overwrite in place
    return false;
  }
  if (data_.size() >= device_.capacity) {
    throw std::runtime_error("DeviceStore: device full: " + device_.name);
  }
  data_.emplace(key, std::move(payload));
  return true;
}

std::optional<std::vector<std::uint8_t>> DeviceStore::read(
    const FragmentKey& key) const {
  const ReaderLock lock(mu_);
  if (failed()) return std::nullopt;
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

bool DeviceStore::contains(const FragmentKey& key) const {
  const ReaderLock lock(mu_);
  return !failed() && data_.contains(key);
}

bool DeviceStore::erase(const FragmentKey& key) {
  const MutexLock lock(mu_);
  return data_.erase(key) > 0;
}

std::uint64_t DeviceStore::used_by_volume(std::uint32_t volume) const {
  const ReaderLock lock(mu_);
  std::uint64_t count = 0;
  for (const auto& [key, payload] : data_) {
    if (key.volume == volume) ++count;
  }
  return count;
}

void DeviceStore::resize(std::uint64_t new_capacity) {
  const MutexLock lock(mu_);
  if (new_capacity == 0) {
    throw std::invalid_argument("DeviceStore: zero capacity: " + device_.name);
  }
  if (new_capacity < data_.size()) {
    throw std::invalid_argument(
        "DeviceStore: cannot shrink " + device_.name + " below its " +
        std::to_string(data_.size()) + " stored fragments");
  }
  device_.capacity = new_capacity;
}

void DeviceStore::fail() {
  const MutexLock lock(mu_);
  failed_.store(true, std::memory_order_release);
}

bool DeviceStore::corrupt(const FragmentKey& key) {
  const MutexLock lock(mu_);
  const auto it = data_.find(key);
  if (it == data_.end()) return false;
  if (it->second.empty()) {
    it->second.push_back(0xEE);  // growth is also corruption
  } else {
    it->second[it->second.size() / 2] ^= 0x5A;
  }
  return true;
}

void DeviceStore::replace() {
  const MutexLock lock(mu_);
  failed_.store(false, std::memory_order_release);
  data_.clear();
}

}  // namespace rds
