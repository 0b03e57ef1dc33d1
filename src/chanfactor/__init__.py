"""Factorize finite classical channels through minimal classical and
quantum intermediate variables.

Import each name from the module that defines it (``chanfactor.channel``,
``chanfactor.qfactor``, ...); ``import chanfactor`` loads nothing."""

__version__ = "0.1.0"
