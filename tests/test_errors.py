"""Tests for the exception hierarchy."""

import pytest

from repro import errors


def test_everything_derives_from_repro_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            assert issubclass(obj, errors.ReproError), name


def test_sub_hierarchies():
    assert issubclass(errors.RegionError, errors.FabricError)
    assert issubclass(errors.ResourceError, errors.FabricError)
    assert issubclass(errors.CRCError, errors.BitstreamError)
    assert issubclass(errors.LinkError, errors.BitstreamError)
    assert issubclass(errors.PortMismatchError, errors.LinkError)
    assert issubclass(errors.AddressDecodeError, errors.BusError)
    assert issubclass(errors.BusWidthError, errors.BusError)


def test_address_decode_error_formats_address():
    err = errors.AddressDecodeError(0xDEAD_BEEF)
    assert "0xdeadbeef" in str(err)
    assert err.address == 0xDEADBEEF


def test_single_catch_point():
    """Library call sites can catch ReproError for anything domain-level."""
    from repro.fabric import get_device

    with pytest.raises(errors.ReproError):
        get_device("not-a-part")
