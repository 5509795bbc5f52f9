(** Public interface of the [dist] library.

    [Dist.t] is a continuous distribution; [Dist.Mixture.t] adds point
    masses.  Submodules provide the concrete families and operators. *)

include Base

module Normal = Normal
module Lognormal = Lognormal
module Gamma_d = Gamma_d
module Beta_d = Beta_d
module Exponential_d = Exponential_d
module Uniform_d = Uniform_d
module Mixture = Mixture
module Reweighted = Reweighted
module Empirical = Empirical
module Fit = Fit
module Pbox = Pbox
