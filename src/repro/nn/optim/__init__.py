"""Optimization engines (the third stack of Fig. 2(a)).

Includes the ePlace/RePlAce Nesterov method with Lipschitz-constant line
search (the paper's default solver), the stock deep-learning solvers
Table IV compares it with (Adam, SGD with momentum), and RMSProp and a
nonlinear conjugate-gradient solver, which no benchmark compares.
"""

from repro.nn.optim.optimizer import Optimizer
from repro.nn.optim.sgd import SGD
from repro.nn.optim.adam import Adam
from repro.nn.optim.rmsprop import RMSProp
from repro.nn.optim.nesterov import NesterovLineSearch
from repro.nn.optim.cg import ConjugateGradient
from repro.nn.optim.lr_scheduler import ExponentialLR

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "RMSProp",
    "NesterovLineSearch",
    "ConjugateGradient",
    "ExponentialLR",
]
