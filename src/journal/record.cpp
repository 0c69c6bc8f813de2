#include "src/journal/record.hpp"

#include <utility>

#include "src/util/codec.hpp"
#include "src/util/hash.hpp"

namespace rds::journal {

std::string_view to_string(RecordType type) noexcept {
  switch (type) {
    case RecordType::kAddDevice: return "add-device";
    case RecordType::kRemoveDevice: return "remove-device";
    case RecordType::kResizeDevice: return "resize-device";
    case RecordType::kFailDevice: return "fail-device";
    case RecordType::kRebuild: return "rebuild";
    case RecordType::kSetStrategy: return "set-strategy";
    case RecordType::kSetScheme: return "set-scheme";
    case RecordType::kCreateVolume: return "create-volume";
    case RecordType::kDropVolume: return "drop-volume";
    case RecordType::kFilePut: return "file-put";
    case RecordType::kFileRemove: return "file-remove";
  }
  return "?";
}

Record make_add_device(const Device& device) {
  Record r;
  r.type = RecordType::kAddDevice;
  r.device = device.uid;
  r.capacity = device.capacity;
  r.device_name = device.name;
  return r;
}

Record make_remove_device(DeviceId uid) {
  Record r;
  r.type = RecordType::kRemoveDevice;
  r.device = uid;
  return r;
}

Record make_resize_device(DeviceId uid, std::uint64_t new_capacity) {
  Record r;
  r.type = RecordType::kResizeDevice;
  r.device = uid;
  r.capacity = new_capacity;
  return r;
}

Record make_fail_device(DeviceId uid) {
  Record r;
  r.type = RecordType::kFailDevice;
  r.device = uid;
  return r;
}

Record make_rebuild() {
  Record r;
  r.type = RecordType::kRebuild;
  return r;
}

Record make_set_strategy(std::string volume, PlacementKind kind) {
  Record r;
  r.type = RecordType::kSetStrategy;
  r.volume = std::move(volume);
  r.detail = std::string(rds::to_string(kind));
  return r;
}

Record make_set_scheme(std::string volume, std::string scheme_name) {
  Record r;
  r.type = RecordType::kSetScheme;
  r.volume = std::move(volume);
  r.detail = std::move(scheme_name);
  return r;
}

Record make_create_volume(std::string volume, std::string scheme_name,
                          PlacementKind kind) {
  Record r;
  r.type = RecordType::kCreateVolume;
  r.volume = std::move(volume);
  r.detail = std::move(scheme_name);
  r.device_name = std::string(rds::to_string(kind));
  return r;
}

Record make_drop_volume(std::string volume) {
  Record r;
  r.type = RecordType::kDropVolume;
  r.volume = std::move(volume);
  return r;
}

Record make_file_put(std::string file, std::span<const std::uint8_t> content) {
  Record r;
  r.type = RecordType::kFilePut;
  r.file = std::move(file);
  r.content.assign(content.begin(), content.end());
  r.content_hash = hash_bytes(content);
  return r;
}

Record make_file_remove(std::string file) {
  Record r;
  r.type = RecordType::kFileRemove;
  r.file = std::move(file);
  return r;
}

namespace {

/// The fields each record type carries, in payload order (after the LSN
/// and the type tag).  One list serves encode_record (Io = codec::Writer)
/// and decode_record (Io = codec::Cursor).
template <typename Io, typename R>
void fields(Io& io, R& r) {
  switch (r.type) {
    case RecordType::kAddDevice:
      return io(r.device, r.capacity, r.device_name);
    case RecordType::kRemoveDevice:
    case RecordType::kFailDevice:
      return io(r.device);
    case RecordType::kResizeDevice:
      return io(r.device, r.capacity);
    case RecordType::kRebuild:
      return;
    case RecordType::kSetStrategy:
    case RecordType::kSetScheme:
      return io(r.volume, r.detail);
    case RecordType::kCreateVolume:  // device_name holds the kind name
      return io(r.volume, r.detail, r.device_name);
    case RecordType::kDropVolume:
      return io(r.volume);
    case RecordType::kFilePut:  // the content runs to the frame's end
      return io(r.file, r.content_hash, r.content);
    case RecordType::kFileRemove:
      return io(r.file);
  }
}

}  // namespace

Bytes encode_record(const Record& record) {
  codec::Writer out;
  out.u64(record.lsn);
  out.u8(static_cast<std::uint8_t>(record.type));
  fields(out, record);
  return std::move(out).take();
}

Result<Record> decode_record(std::span<const std::uint8_t> payload) {
  codec::Cursor in(payload);
  Record r;
  r.lsn = in.u64();
  const std::uint8_t tag = in.u8();
  if (in.failed()) {
    return Error{ErrorCode::kCorruption, "record payload truncated"};
  }
  if (tag < static_cast<std::uint8_t>(RecordType::kAddDevice) ||
      tag > static_cast<std::uint8_t>(RecordType::kFileRemove)) {
    return Error{ErrorCode::kCorruption,
                 "unknown record type tag " + std::to_string(tag)};
  }
  r.type = static_cast<RecordType>(tag);
  fields(in, r);
  if (in.failed()) {
    return Error{ErrorCode::kCorruption,
                 "record payload truncated (" + std::string(to_string(r.type)) +
                     ")"};
  }
  if (!in.done()) {
    return Error{ErrorCode::kCorruption,
                 "record payload has trailing bytes (" +
                     std::string(to_string(r.type)) + ")"};
  }
  return r;
}

}  // namespace rds::journal
