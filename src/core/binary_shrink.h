// Copyright (c) hdc authors. Apache-2.0 license.
//
// binary-shrink (paper, Section 2.1): the baseline numeric crawler. Runs a
// rectangle; if it overflows, 2-way splits it at the midpoint of the extent
// of a non-exhausted attribute and recurses. Its cost depends on the domain
// sizes of the attributes (unbounded in general), which is exactly the
// weakness rank-shrink removes.
#pragma once

#include "core/crawler.h"

namespace hdc {

class BinaryShrink : public Crawler {
 public:
  std::string name() const override { return "binary-shrink"; }

  /// Requires an all-numeric schema with *bounded* attribute domains —
  /// midpoint splitting cannot start from an infinite extent.
  Status ValidateSchema(const Schema& schema) const override;

 protected:
  std::shared_ptr<CrawlState> MakeInitialState(
      HiddenDbServer* server, const CrawlOptions& options) const override;
  void Run(CrawlContext* ctx, CrawlState* state) const override;
};

}  // namespace hdc
