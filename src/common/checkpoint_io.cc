#include "common/checkpoint_io.h"

#include "common/string_util.h"

namespace fkc {

void CheckpointReader::SkipSpace() {
  while (pos_ < bytes_.size() && IsSpace(bytes_[pos_])) ++pos_;
}

Status CheckpointReader::NextToken(std::string* out) {
  SkipSpace();
  const size_t start = pos_;
  while (pos_ < bytes_.size() && !IsSpace(bytes_[pos_])) ++pos_;
  if (pos_ == start) return Status::InvalidArgument("truncated checkpoint");
  out->assign(bytes_, start, pos_ - start);
  return Status::OK();
}

Status CheckpointReader::NextInt(int64_t* out) {
  std::string token;
  FKC_RETURN_IF_ERROR(NextToken(&token));
  auto parsed = ParseInt(token);
  if (!parsed.ok()) return parsed.status();
  *out = parsed.value();
  return Status::OK();
}

Status CheckpointReader::NextDouble(double* out) {
  std::string token;
  FKC_RETURN_IF_ERROR(NextToken(&token));
  auto parsed = ParseDouble(token);
  if (!parsed.ok()) return parsed.status();
  *out = parsed.value();
  return Status::OK();
}

Status CheckpointReader::NextSize(size_t* out, size_t limit) {
  int64_t value = 0;
  FKC_RETURN_IF_ERROR(NextInt(&value));
  if (value < 0 || static_cast<size_t>(value) > limit) {
    return Status::InvalidArgument("implausible count in checkpoint");
  }
  *out = static_cast<size_t>(value);
  return Status::OK();
}

Status CheckpointReader::NextRaw(std::string_view* out, size_t limit) {
  size_t len = 0;
  FKC_RETURN_IF_ERROR(NextSize(&len, limit));
  if (pos_ >= bytes_.size() || !IsSpace(bytes_[pos_])) {
    return Status::InvalidArgument("malformed raw segment");
  }
  ++pos_;  // the single separator after the length
  if (len > bytes_.size() - pos_) {
    return Status::InvalidArgument("truncated raw segment");
  }
  *out = std::string_view(bytes_).substr(pos_, len);
  pos_ += len;
  return Status::OK();
}

Status CheckpointReader::NextRaw(std::string* out, size_t limit) {
  std::string_view view;
  FKC_RETURN_IF_ERROR(NextRaw(&view, limit));
  out->assign(view);
  return Status::OK();
}

void WriteCheckpointDouble(std::ostringstream* out, double value) {
  *out << StrFormat("%a", value) << ' ';
}

void WriteCheckpointRaw(std::ostringstream* out, const std::string& bytes) {
  *out << bytes.size() << ' ' << bytes << ' ';
}

void WriteCheckpointRaw(std::string* out, std::string_view bytes) {
  WriteCheckpointRaw(out, bytes.size(),
                     [bytes](std::string* body) { body->append(bytes); });
}

}  // namespace fkc
