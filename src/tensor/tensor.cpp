#include "tensor/tensor.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "common/string_util.h"

namespace candle {

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::string s = "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(shape[i]);
  }
  return s + "]";
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(shape_numel(shape_), fill) {}

Tensor::Tensor(Shape shape, const std::vector<float>& values)
    : shape_(std::move(shape)), data_(values.begin(), values.end()) {
  require(data_.size() == shape_numel(shape_),
          "Tensor: value count " + std::to_string(data_.size()) +
              " does not match shape " + shape_to_string(shape_));
}

Tensor Tensor::from(std::initializer_list<float> values) {
  return Tensor({values.size()}, std::vector<float>(values));
}

std::size_t Tensor::dim(std::size_t i) const {
  require(i < shape_.size(), "Tensor::dim: axis out of range");
  return shape_[i];
}

float& Tensor::at(std::size_t i) {
  if (i >= data_.size())
    throw InvalidArgument("Tensor::at: index " + std::to_string(i) +
                          " out of range for " +
                          std::to_string(data_.size()) + " elements");
  return data_[i];
}

float Tensor::at(std::size_t i) const {
  return const_cast<Tensor*>(this)->at(i);
}

float& Tensor::at(std::size_t r, std::size_t c) {
  require(rank() == 2, "Tensor::at: rank must be 2");
  require(r < shape_[0] && c < shape_[1], "Tensor::at: index out of range");
  return data_[r * shape_[1] + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
  return const_cast<Tensor*>(this)->at(r, c);
}

Tensor Tensor::reshaped(Shape new_shape) const {
  require(shape_numel(new_shape) == numel(),
          "Tensor::reshaped: numel mismatch " + shape_to_string(shape_) +
              " -> " + shape_to_string(new_shape));
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.data_ = data_;
  return out;
}

void Tensor::zero() { std::fill(data_.begin(), data_.end(), 0.0f); }

Tensor& Tensor::operator+=(const Tensor& other) {
  check_same_shape(*this, other, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  check_same_shape(*this, other, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (float& v : data_) v *= s;
  return *this;
}

float Tensor::sum() const {
  // Accumulate in double for stability over large tensors.
  return static_cast<float>(
      std::accumulate(data_.begin(), data_.end(), 0.0));
}

float Tensor::mean() const {
  return data_.empty() ? 0.0f : sum() / static_cast<float>(data_.size());
}

float Tensor::min() const {
  return data_.empty() ? 0.0f : *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  return data_.empty() ? 0.0f : *std::max_element(data_.begin(), data_.end());
}

float Tensor::sq_norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(acc);
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape())
    throw InvalidArgument(std::string(op) + ": shape mismatch " +
                          shape_to_string(a.shape()) + " vs " +
                          shape_to_string(b.shape()));
}

}  // namespace candle
